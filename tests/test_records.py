"""``slot_init`` against the dataclass ``__init__`` it replaces.

Each of the six per-request records is compared with a twin built by
``dataclasses.make_dataclass`` from the same fields, which keeps the
generated ``__init__``: the two must agree on every call shape, error,
comparison, copy and freeze.  A class with a ``__post_init__`` covers the
call the six records do not make, and every feature ``slot_init`` does
not reproduce is refused when the class is created.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import InitVar, dataclass, field

import pytest

from repro.core.interfaces import Decision
from repro.core.records import slot_init
from repro.engine.simulator import ExecutionResult
from repro.pilotscope.console import QueryLogEntry
from repro.serve.runtime import Rejected, Request, Served


@slot_init
@dataclass(frozen=True, slots=True)
class Bounded:
    """A record whose ``__post_init__`` validates: the six have none."""

    low: int
    high: int = 10

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"low {self.low} > high {self.high}")


RECORDS = [Request, Decision, ExecutionResult, Served, Rejected, QueryLogEntry, Bounded]


def _twin(cls: type) -> type:
    """``cls`` rebuilt by ``make_dataclass``: same name, fields, defaults
    and ``__post_init__``, with the dataclass-generated ``__init__``."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True, slots=True)


def _values(cls: type) -> dict:
    """A distinct value per field, in field order (so ``Bounded`` stays
    valid: low <= high, and each changed value below keeps it so)."""
    return {f.name: i for i, f in enumerate(dataclasses.fields(cls))}


def _state(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _outcome(build):
    """What a call did: the built record's state, or the error it raised."""
    try:
        return ("ok", _state(build()))
    except TypeError as error:
        return ("TypeError", str(error))


def _calls(cls: type) -> list:
    """Every call shape: positional, keyword, defaulted, and the missing,
    unknown, repeated and surplus arguments."""
    fields = dataclasses.fields(cls)
    values = _values(cls)
    positional = list(values.values())
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    first = fields[0].name
    return [
        ((), {}),
        (tuple(positional), {}),
        ((), dict(values)),
        (tuple(positional[:1]), {k: v for k, v in values.items() if k != first}),
        (tuple(values[n] for n in required), {}),
        ((), {n: values[n] for n in required}),
        (tuple(values[n] for n in required[:-1]), {}),
        (tuple(positional), {"unknown": 1}),
        (tuple(positional), {first: values[first]}),
        ((*positional, "surplus"), {}),
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_init_agrees_with_the_dataclass_init(cls):
    twin = _twin(cls)
    for args, kwargs in _calls(cls):
        ours = _outcome(lambda: cls(*args, **kwargs))
        theirs = _outcome(lambda: twin(*args, **kwargs))
        assert ours == theirs, (args, kwargs)
    defaulted = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
    required = {f.name: v for f, v in zip(dataclasses.fields(cls), _values(cls).values()) if f not in defaulted}
    built = cls(**required)
    assert all(getattr(built, f.name) is f.default for f in defaulted)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_behaves_as_its_twin(cls):
    values = _values(cls)
    record, twin = cls(**values), _twin(cls)(**values)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert record == cls(**values) and twin == type(twin)(**values)
    other = {**values, dataclasses.fields(cls)[-1].name: len(values)}
    assert (record == cls(**other)) is (twin == type(twin)(**other)) is False
    assert record.__getstate__() == twin.__getstate__()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls and clone == record
    assert _state(copy.deepcopy(twin)) == _state(record)
    for f in dataclasses.fields(cls):
        changed = {f.name: values[f.name] + 0.5}
        assert _state(dataclasses.replace(record, **changed)) == _state(dataclasses.replace(twin, **changed))
        for target in (record, twin):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, f.name)
    assert not hasattr(record, "__dict__")


def test_post_init_runs_as_the_dataclass_init_runs_it():
    twin = _twin(Bounded)
    for make in (Bounded, twin):
        assert make(3).high == 10
        with pytest.raises(ValueError, match="low 11 > high 10"):
            make(11)
        with pytest.raises(ValueError, match="low 5 > high 4"):
            make(5, high=4)


def test_init_is_generated_per_class():
    assert Served.__init__.__qualname__ == "Served.__init__"
    assert Served.__init__.__module__ == Served.__module__
    assert Served.__init__.__defaults__ == ("", 0, 0, "")


def _refused(**spec):
    """Build a ``slot_init`` class from ``spec``: ``frozen`` / ``slots``
    flags and the field annotations and defaults of its body."""
    frozen, slots = spec.pop("frozen", True), spec.pop("slots", True)
    body = {"__annotations__": {name: ann for name, (ann, _) in spec.items()}}
    body.update({name: default for name, (_, default) in spec.items() if default is not None})
    return slot_init(dataclass(frozen=frozen, slots=slots)(type("Refused", (), body)))


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"frozen": False, "a": ("int", None)}, "is not frozen"),
        ({"slots": False, "a": ("int", None)}, "is not slots=True"),
        ({"a": ("list", field(default_factory=list))}, "has a default_factory"),
        ({"a": ("int", field(default=0, init=False))}, "is init=False"),
        ({"a": ("int", field(kw_only=True))}, "is kw_only"),
        ({"a": ("int", None), "b": (InitVar[int], None)}, r"takes \['a', 'b'\], not its fields \['a'\]"),
    ],
    ids=["unfrozen", "unslotted", "default_factory", "init_false", "kw_only", "initvar"],
)
def test_refuses_what_it_cannot_reproduce(spec, message):
    with pytest.raises(TypeError, match=message):
        _refused(**spec)


def test_refuses_a_field_whose_slot_is_a_base_class_s():
    base = dataclass(frozen=True, slots=True)(type("Base", (), {"__annotations__": {"a": "int"}}))
    derived = type("Derived", (base,), {"__annotations__": {"b": "int"}})
    with pytest.raises(TypeError, match="Derived.a is no slot of Derived's own"):
        slot_init(dataclass(frozen=True, slots=True)(derived))


def test_refuses_a_class_that_is_no_dataclass():
    with pytest.raises(TypeError, match="is not a dataclass"):
        slot_init(type("Plain", (), {"__slots__": ("a",)}))
