"""A per-request record built at the cost of its fields.

The six records the serving path builds once per request (census rules
(e) / (g)) are ``@dataclass(frozen=True, slots=True)``.  The ``__init__``
``dataclass`` generates for a frozen class writes each field with
``object.__setattr__(self, name, value)``, which on CPython 3.11 looks the
slot up by name and binds a method-wrapper per field: an 8-field record
costs about twice what writing its slots costs.  :func:`slot_init`
replaces that ``__init__`` with one that writes each field through its
slot's member descriptor, bound once per class.

Only what the generated ``__init__`` reproduces exactly is accepted: a
frozen, slotted dataclass whose fields are all plain positional-or-keyword
``init`` fields (defaults allowed, no ``default_factory``, no ``kw_only``,
no ``InitVar``); anything else is a ``TypeError`` when the class is
created.  Unslotted frozen classes (plan nodes, ``Query``) keep the
dataclass ``__init__``: they have no slots to write, and writing their
``__dict__`` instead would materialize a per-instance dict.
"""

from __future__ import annotations

import dataclasses
import inspect
from types import MemberDescriptorType

__all__ = ["slot_init"]


def slot_init(cls: type) -> type:
    """Stacked on a ``@dataclass(frozen=True, slots=True)``: give ``cls``
    an ``__init__`` with the same parameters, in the same order and with
    the same default objects, that writes each field through
    ``cls.__dict__[name].__set__`` and then calls ``__post_init__`` where
    the class has one.  Returns ``cls``."""
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise TypeError(f"slot_init: {cls!r} is not a dataclass")
    name = cls.__qualname__
    if not cls.__dataclass_params__.frozen:
        raise TypeError(f"slot_init: {name} is not frozen")
    if "__slots__" not in cls.__dict__:
        raise TypeError(f"slot_init: {name} is not slots=True")
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"slot_init: {name}.{f.name} has a default_factory")
        if not f.init:
            raise TypeError(f"slot_init: {name}.{f.name} is init=False")
        if f.kw_only:
            raise TypeError(f"slot_init: {name}.{f.name} is kw_only")
        if not isinstance(cls.__dict__.get(f.name), MemberDescriptorType):
            raise TypeError(f"slot_init: {name}.{f.name} is no slot of {name}'s own")
    names = [f.name for f in fields]
    taken = list(inspect.signature(cls.__init__).parameters)[1:]
    if taken != names:
        raise TypeError(f"slot_init: {name}.__init__ takes {taken}, not its fields {names} (InitVar)")

    namespace: dict = {}
    parameters = ["self"]
    body = []
    for f in fields:
        setter = f"__slot_set_{f.name}__"
        namespace[setter] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            parameters.append(f.name)
        else:
            default = f"__slot_default_{f.name}__"
            namespace[default] = f.default
            parameters.append(f"{f.name}={default}")
        body.append(f"    {setter}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__({', '.join(parameters)}):\n" + ("\n".join(body) or "    pass")
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{name}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
