"""The census as a test: no caller, no code.

Two kinds of rule keep the codebase minimal, each cited by its letter.

``OWNED`` is the table of "one X" invariants, the names only their owner
files may use.  A row is ``name: (match, trees, owners, reason, rule)``:
``match`` says how a use is found -- a ``word`` of the text (comments and
docstrings too), an ``identifier`` (a name, an attribute or an imported
name), a ``call`` or a ``def`` (or a ``{kind: finding}`` dict, for a row that
matches more than one kind or words its findings itself) -- ``trees`` where
it is looked for (directories or files under the root), ``owners`` the files
that may use it, ``reason`` the fix a failure points to.  One rule checks
every row, and one seeded case plants each name in a non-owner file (caught)
and in each owner (not caught).  A new invariant of that kind is a row.

``RULES`` lists the rules a name cannot say, which stay functions:

(a) every name a package ``__init__`` exports is imported *through that
    package* by some file outside it (the top-level ``repro`` facade is
    exempt);
(b) every public top-level class and function under ``src/repro`` is
    named by product code -- a file under ``src/``, ``benchmarks/``,
    ``perf/`` or ``examples/``, or README's python blocks -- or by a
    ``"module:Class"`` row of ``core/registry.py``; and every public method
    of every class there, keyed ``Class.method``, is reached by product
    code: ``self.m`` / ``cls.m`` / ``super().m`` inside ``C``, a base or a
    subclass of it; ``C.m`` or ``Sub.m`` by class name; ``x.m`` on a local
    every binding of which in its scope calls a constructor ``C(...)``; or
    ``E.x.m`` on an attribute some class assigns a constructor call
    (``self.x`` within the hierarchy, any other receiver across all
    classes; either branch of a conditional counts, and a value assigned
    from a parameter is taken to be of those classes).  A receiver that is
    a call -- or a local every binding of which is one -- is typed by what
    the call returns: ``C(...)`` is a ``C``, ``cls(...)`` in a classmethod
    its class, and a function or method is of the classes its every
    ``return`` gives (typed as a receiver is: a constructor, ``self``, a
    typed local or attribute, another typed call; ``return None`` gives
    none), resolved to a fixpoint.  On a receiver the rule cannot type --
    a parameter, a loop target, an attribute nothing constructs, what a
    generator or an untyped ``return`` gives, ``self`` in a ``Protocol``
    -- and for a ``getattr`` / ``hasattr`` string, ``.m`` counts for every
    method named ``m``.  Annotations type nothing, a bare name or a
    keyword argument reaches no method, and a registry row reaches its
    class, not the class's methods.  What nothing reaches is deleted, or
    is on ``TEST_ONLY`` / ``PROTOCOLS``;
(c) every ``examples/*.py`` still imports (without running it);
(d) every knob has a second product value.  A knob is a defaulted
    parameter of a callable under ``src/repro`` (a class's constructor
    -- its ``__init__``, or the defaulted fields of a ``frozen=True``
    dataclass --, a method or a function), keyed ``Callable.param``.
    Each call under ``src/``, ``benchmarks/``, ``perf/`` or
    ``examples/`` of the callable's name (same-named callables pool
    their calls; a subclass's ``super().__init__`` calls its base; a
    keyed ``core/registry.py`` row calls the class it names with its
    args) gives the knob a value: the literal it passes by position or
    keyword (a ``**`` dict display's string keys are keywords), a value
    unlike any other for a non-literal, a ``*`` spread or a display's
    computed key, the default when it omits it; README's python blocks
    are calls too.  A forwarded argument -- a bare name that is a
    parameter of the callable under ``src/repro`` the call is in, never
    rebound there, passed as ``x=x`` or by position -- gives the values
    that callable's own calls give that parameter, resolved to a
    fixpoint over the full value set (a cycle adds nothing, a callable
    nothing calls gives none). A ``**`` spread of anything but a dict
    display into a callable with knobs fails on its own: it forwards
    knobs the rule cannot see, so the callee's parameters are spelled
    out instead.  A knob whose calls give it exactly one value -- always
    the default, or always one literal -- is a constant; one whose every
    value arrives through an allow-listed knob is covered by that entry.
    A knob whose default is ``None`` is given ``None`` by some product
    call -- literally, by omission, or through a forward -- or its
    ``None`` only selects a path tests reach: it becomes required.  A
    knob kept anyway is on ``POSITIONAL`` (product code sets it where
    the rule cannot see a second value: ``perf/`` pins it) or
    ``TEST_SEAMS`` (a safety bound, a fake's seam, a size the tests
    shrink, or a feature a ROADMAP item decides), each with its reason;
    an entry fails once its knob has a second product value, and a seam
    no test turns fails too;
(e) every ``@dataclass`` with a ``latency_ms`` field of its own or of a base
    is one of ``RECORDS``, one per boundary a query crosses;
(f) one bench contract: every registered bench defines ``export`` (a T / E
    bench and P1 also ``measure``); nothing under ``benchmarks/`` takes the
    ``benchmark`` fixture or a ``profile``, reads ``os.environ`` or defines
    ``_PROFILES``; and no function of a registered bench that takes a
    ``seed`` passes a literal ``seed=<int>`` on;
(g) the request path is single-writer: no module imports ``threading``, and
    every record built once per request is ``slots=True`` and carries
    ``@slot_init`` directly above its ``@dataclass``;
(h) one LRU: nothing outside ``core/lru.py`` touches a ``BoundedLRU``'s
    ``_entries`` (a class that is no LRU may keep a list of that name on
    ``self``);
(k) one subset enumeration: outside ``ENUMERATORS`` no ``combinations``
    call under ``src/`` has a non-literal size (the ``join_adjacency``
    walk is a row);
(m) one template identity: no string under ``src/``, ``benchmarks/`` or
    ``examples/`` but a docstring renders a ``?`` placeholder -- after a
    space, a parenthesis or a comma, or a ``"?"`` joined into text (the
    ``predicate_template`` name is a row);
(n) one tree-conv training plan: outside ``ml/treeconv.py`` nothing gathers
    at a batch's ``idx3`` (the ``batches`` generator is a row);
(p) every module-level import under ``src/``, ``benchmarks/``,
    ``examples/`` and ``tests/`` is read by its module (a package
    ``__init__``'s re-exports are rule (a)'s, a name in ``__all__`` is an
    export);
(q) a contract is its signature: no ``getattr`` / ``hasattr`` /
    ``setattr`` under ``src/``, ``benchmarks/`` or ``examples/`` names a
    non-dunder attribute by a string literal (a member some objects lack
    is made part of the protocol, or the caller tells the types apart by
    ``isinstance``), and no class under ``src/`` defines ``__getattr__``
    (a wrapper forwards what it declares).  A name held in a variable is
    a reflective walk, not a probe;
(s) every function under ``src/repro`` is one ``REACH.json`` lists, and
    every listed one exists, keyed ``path:Qual.name`` as ``tests/reach.py``
    keys it; one no product run enters is a dunder, a ``Protocol`` / ``ABC``
    / ``@abstractmethod`` member, a stub whose body only raises or is
    ``...``, on ``TEST_ONLY`` or an ``UNENTERED`` row with its reason (an
    entry covers the functions it encloses, and a row whose function is
    entered or gone is stale); and every ``None``-defaulted parameter some
    run called got ``None`` from one.  ``python -m tests.reach``
    regenerates the file.

The rows add (i) feedback only records, (j) a bootstrap member is read
after its owed fit, (k)'s adjacency walk, (l) one exact counter, (m)'s text
renderer, (n)'s per-epoch batches, (o) the per-decision triggers read a
sorted window and (r) a fabric request asks each shard and the bus once;
each row's ``reason`` says the rest.

Every rule reads one cached fact pass per file text (``Facts``; rule (b)
adds one receiver pass, ``MethodRefs``, rule (d) one call pass), and none
imports ``repro`` but (c) and the slotted-records round trip.  A failure
names the file and the symbol; the fix is to delete the code, not to grow
an allow-list.  The ``test_seeded_*`` cases re-run the rules with some
file's text replaced, to show each rule bites.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib.util
import json
import pickle
import re
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest

from tests.reach import Definition, definitions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
BENCH = ROOT / "benchmarks"
REGISTRY = SRC / "core" / "registry.py"
README = ROOT / "README.md"
CODE_TREES = ("src", "benchmarks", "perf", "examples")
PRODUCT = ("src", "benchmarks", "examples")

#: declared interfaces: implemented structurally, never named by a caller
PROTOCOLS = {"CostEstimator", "LatencyPredictor"}

#: features with tests but no scenario, bench or example behind them --
#: kept, and listed here so the next re-anchor can decide each one; a
#: method is keyed ``Class.method``
TEST_ONLY = {
    "RiskLambdaTuner",  # blended-risk lambda tuning policy (PR 13)
    "shard_fault_plan",  # its reroute drills' fault plans
    "ModelRegistry.lineage",  # registry ancestry walk
    "PilotScopeConsole.stop_driver",  # console driver lifecycle
    # -- the paper library (PR 20) --
    "execute_cardinality",  # one-shot exact count: the engine tests' seam (20 asserts)
    "RegressionTree",  # the GBDT kernel test's unit: a lone tree as a one-root table
    "PilotSession.push_config",  # paper section 3.1's push operator list, ROADMAP item 7
    "_SimSession.push_config",  # ... as the simulated PostgreSQL serves it, ROADMAP item 7
    "PilotSession.pull_native_estimate",  # ... and its pull operator list, ROADMAP item 7
    "_SimSession.pull_native_estimate",  # ROADMAP item 7
    "generate_names",  # Astrid's synthetic string column (Astrid is registry-only)
    "ConcurrentWorkload",  # interference simulator labelling ConcurrentCostModel's mixes
    "AutoSteerOptimizer",  # AutoSteer [1]: no product run builds it or enters discover_hint_sets, ROADMAP item 7
    "RewriteDriver",  # PilotScope form of the rewrite layer; scenarios use RewritingOptimizer
    "flow_loss_weights",  # Flow-Loss [44] sample weighting
    "pac_learning_curve",  # PAC learnability diagnostic [19]
    "interval_coverage",  # prediction-interval diagnostic [55]
    # -- methods only tests call: each its method's defining capability --
    "EnsembleEstimator.uncertainty",  # ROADMAP item 7: [55]'s disagreement score, an E1 column
    "ConcurrentCostModel.predict_mix",  # ROADMAP item 7: GPredictor's per-mix prediction, E5
    "PlanAutoencoder.embed",  # ROADMAP item 7: Saturn's plan embedding, E5
    "PlanAutoencoder.reconstruction_error",  # ROADMAP item 7: Saturn's out-of-distribution score, E5
    "UnifiedTransferableModel.fine_tune",  # ROADMAP item 7: MLMTF's transfer step, E5
    "BalsaOptimizer.bootstrap_from_simulation",  # ROADMAP item 7: Balsa's sim-to-real phase, E8
}

#: rule (d): knobs product code sets where the rule sees one value --
#: ``perf/`` pins them, and perf's files are the benchmark's (ROADMAP item 9)
POSITIONAL = {
    "WorkloadGenerator.parameterized_workload.min_tables": "perf/workloads.py: .parameterized_workload(n_templates, bindings, 2, 4, ...)",
    "WorkloadGenerator.parameterized_workload.max_tables": "the same perf call: 4",
    "WorkloadGenerator.parameterized_workload.require_predicate": "the same perf call: require_predicate=True",
    "default_tenant_specs.n_tenants": "perf/workloads.py: default_tenant_specs(6)",
    "synthetic_fabric.n_workers": "perf/workloads.py: synthetic_fabric(16, specs, ..., n_workers=2, ...)",
    "synthetic_queries.n_templates": "perf/workloads.py: synthetic_queries(240, seed=seed)",
}

#: rule (d): knobs only tests turn, kept on purpose
TEST_SEAMS = {
    # -- safety bounds: tests shrink them to reach the bound; never a tuning target
    "CardinalityCache.capacity": "the cardinality cache's bound; test_batch_and_cache / test_lifecycle fill it to evict",
    "CardinalityExecutor.cache_capacity": "the exact executor's memo; test_engine fills it to evict",
    "CardinalityExecutor.max_intermediate_rows": "the row budget an exact count may not exceed; test_engine trips it",
    "KeyIndexCache.capacity": "the key-index cache's bound; test_kernels evicts at 0 and 1",
    "ExperienceStore.capacity": "the experience ring; test_lifecycle wraps it at 0-32 records",
    "PilotScopeConsole.max_log_entries": "the bounded query log; test_pilotscope caps it at 3 and 5",
    "PlanInterpreter.max_rows": "the literal interpreter's row budget; test_oracle trips it at 0",
    "CircuitBreaker.failure_threshold": "the trip threshold; test_serve / test_robustness / test_arm_sweep trip on 1-2 failures",
    "build_schedule.mean_interarrival_ms": "arrival density; test_serve packs arrivals 2 ms apart to reach the queue and timeout bounds",
    # -- a test replaces the dependency with a fake
    "BoundGuard.db": "test_bounds wraps the bound estimator in a fault injector, which has no db",
    "synthetic_fabric.fault_plan": "test_fabric's reroute drills make shard backends faulty (shard_fault_plan, TEST_ONLY)",
    # -- a size the tests shrink
    "TreeConvNet.fit.batch_size": "test_treeconv_kernel's ragged batches (7, 6, 1..40) check the epoch plan against the loop",
    "NeoOptimizer.search_budget": "test_framework_instances cuts Neo's best-first search to 3 expansions to reach its greedy completion",
    "sharded_fabric_scenario.n_shards": "a size the tests shrink: test_fabric / test_serve run 1-3 shards (README: 4)",
    "sharded_fabric_scenario.scale": "a size the tests shrink: test_fabric / test_serve build at scale 0.1-0.2",
    "sharded_fabric_scenario.seed": "a size the tests shrink: test_fabric / test_serve draw seeds 1 and 9",
    "sharded_fabric_scenario.n_queries": "a size the tests shrink: test_fabric / test_serve serve 8-36 queries",
    # -- deferred: ROADMAP item 5 decides the guard chain on the serving path
    "DeploymentManager.guards": "DESIGN.md section 8 keeps the guard chain on the call path; test_serve / "
    "test_retrain_cadence veto through it, and item 5's soak is to enter ladder rung 3",
    "sharded_fabric_scenario.fault_plan": "item 5's soak is its planned caller; test_fabric's reroute drill "
    "on the real per-shard stack turns it",
    # -- deferred: ROADMAP item 2 decides the schema generator's profiles
    "SchemaGenConfig.n_components": "ROADMAP item 2",
    "SchemaGenConfig.topology": "ROADMAP item 2",
    "SchemaGenConfig.extra_edge_rate": "ROADMAP item 2",
    "SchemaGenConfig.many_to_many_rate": "ROADMAP item 2",
    "SchemaGenConfig.fanout_skew": "ROADMAP item 2",
    "SchemaGenConfig.skew": "ROADMAP item 2",
    "SchemaGenConfig.correlated_rate": "ROADMAP item 2",
    "SchemaGenConfig.mixture_rate": "ROADMAP item 2",
    "SchemaGenConfig.domain": "ROADMAP item 2",
    # -- deferred: ROADMAP item 7 decides the blended risk mode
    "Optimizer.plan.risk": "a per-planning risk override (RiskLambdaTuner, TEST_ONLY), ROADMAP item 7",
    "Optimizer.plan.risk_lambda": "ROADMAP item 7",
    "Optimizer.plan_arms.risk": "ROADMAP item 7",
    "Optimizer.plan_arms.risk_lambda": "ROADMAP item 7",
    "MLP.fit.sample_weight": "Flow-Loss weighting (flow_loss_weights, TEST_ONLY), ROADMAP item 7",
    # -- deferred: ROADMAP item 11 decides the simulator's noise
    "SimulatorConfig.noise_sigma": "ROADMAP item 11",
    "SimulatorConfig.noise_seed": "ROADMAP item 11",
    "ExecutionSimulator.config": "carries the noise settings, ROADMAP item 11",
}


class Owned(NamedTuple):
    """One "one X" invariant: ``name`` appears only in ``owners``."""

    match: str | dict[str, str]
    trees: tuple[str, ...]
    owners: tuple[str, ...]
    reason: str
    rule: str


#: the finding each match kind reports, after the file
VERBS = {"word": "names", "identifier": "names", "call": "calls", "def": "defines"}

#: the files under ``src/`` that may enumerate a join graph's subsets: the
#: compiled JoinGraph, and the oracle's own connected-subset walk, kept
#: independent of the code it checks
ENUMERATORS = ("src/repro/sql/joingraph.py", "src/repro/oracle/contracts.py")
#: the file that builds batch index arrays and gathers layer-1 rows
PLAN_OWNER = ("src/repro/ml/treeconv.py",)

_FEEDBACK = (
    "a model records feedback and nothing else; when it refits is one "
    "RetrainCadence (core/framework.py), set where the stack is built"
)
_COUNTER = (
    "every count runs its join graph's recipe in CardinalityExecutor._count: peel "
    "the tables with one join left, then count the core (engine/executor.py); the "
    "replaced strategies live on in tests/executor_reference.py"
)
_WINDOW = (
    "a trigger checks on every served decision: keep its window sorted as it "
    "observes and read the quantile off it (QErrorTrigger.current)"
)
#: the fabric's request loop
FABRIC_LOOP = "src/repro/serve/fabric/fabric.py"
_ONCE = (
    "a fabric request asks each shard and the bus once: the router reads its "
    "candidates' healthy / backlog directly (ShardRouter.route), a per-request "
    "record goes through a TelemetryBus.histogram handle bound on first use, and "
    "the fabric's counters are summed per run"
)

OWNED = {
    "retrain_every": Owned("word", PRODUCT, (), _FEEDBACK, "i"),
    "_since_retrain": Owned("word", PRODUCT, (), _FEEDBACK, "i"),
    "_members": Owned(
        "identifier",
        (*CODE_TREES, "tests"),
        ("src/repro/e2e/risk_models.py", "tests/risk_models_reference.py"),
        "a retrain leaves each member a fit it owes; read the ensemble through "
        "members(), which runs it first",
        "j",
    ),
    "join_adjacency": Owned(
        {"call": "walks the join graph"},
        ("src",),
        ENUMERATORS,
        "subsets and partitions are compiled once per join graph: read "
        "join_graph(query).subsets / .partitions (sql/joingraph.py)",
        "k",
    ),
    "_tree_count": Owned("def", ("src",), (), _COUNTER, "l"),
    "_materialized_count": Owned("def", ("src",), (), _COUNTER, "l"),
    "_join_graph_is_tree": Owned("def", ("src",), (), _COUNTER, "l"),
    "predicate_template": Owned(
        "word",
        PRODUCT,
        (),
        "a template is Query.template_key's tuple of shapes (sql/query.py); the "
        "text key lives on only in tests/statistics_reference.py",
        "m",
    ),
    "batches": Owned(
        {"call": "batches per epoch", "def": "defines batches"},
        PRODUCT,
        PLAN_OWNER,
        "a tree-conv loop iterates PlanTreeCorpus.plan(orders, batch_size), built a "
        "block of epochs at a time (ml/treeconv.py)",
        "n",
    ),
    **{
        name: Owned("call", ("src/repro/lifecycle/scheduler.py",), (), _WINDOW, "o")
        for name in ("quantile", "percentile", "nanquantile", "nanpercentile")
    },
    "observe": Owned("call", (FABRIC_LOOP,), (), _ONCE, "r"),
    "__getitem__": Owned("def", (FABRIC_LOOP,), (), _ONCE, "r"),
}


# -- one fact pass per file text ---------------------------------------------------------


class Facts(NamedTuple):
    """What the rules read of one file's text, gathered in one pass."""

    imports: list  # (module, name) of every absolute from-import
    modules: list  # (line, module) of every import
    identifiers: frozenset  # names, attributes, imported names (not a re-export)
    names: frozenset  # every ast.Name
    bound: list  # (line, name) each module-level import binds
    words: frozenset  # every \w+ word, comments and docstrings included
    keywords: dict  # keyword-argument name -> [(ast.keyword, enclosing defs)]
    calls: dict  # called name or attribute -> [ast.Call]
    defs: dict  # function name -> [ast.FunctionDef]
    attributes: dict  # attribute name -> [(ast.Attribute, enclosing class)]
    assigned: dict  # name assigned as a plain target -> [line]
    classes: list  # every ast.ClassDef
    strings: list  # every str constant but a docstring
    subscripts: list  # every ast.Subscript
    keys: frozenset  # the str keys of dict literals


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


@lru_cache(maxsize=None)
def _parse_text(text: str, filename: str) -> ast.Module:
    return ast.parse(text, filename=filename)


@lru_cache(maxsize=None)
def _file_facts(text: str, filename: str, reexport: bool) -> Facts:
    """The facts of one file's text (a package ``__init__``'s re-export
    imports are not a use)."""
    facts = Facts(
        imports=[],
        modules=[],
        identifiers=set(),
        names=set(),
        bound=[],
        words=frozenset(re.findall(r"\w+", text)),
        keywords=defaultdict(list),
        calls=defaultdict(list),
        defs=defaultdict(list),
        attributes=defaultdict(list),
        assigned=defaultdict(list),
        classes=[],
        strings=[],
        subscripts=[],
        keys=set(),
    )

    def visit(node: ast.AST, owner: str | None, functions: tuple) -> None:
        body = getattr(node, "body", None)
        docstring = (
            body[0].value
            if isinstance(node, _SCOPES) and body and isinstance(body[0], ast.Expr)
            else None
        )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and not functions and owner is None:
                facts.bound.extend(
                    (child.lineno, alias.asname or alias.name.split(".")[0])
                    for alias in child.names
                    if getattr(child, "module", None) != "__future__"
                )
            if isinstance(child, ast.Name):
                facts.identifiers.add(child.id)
                facts.names.add(child.id)
            elif isinstance(child, ast.Attribute):
                facts.identifiers.add(child.attr)
                facts.attributes[child.attr].append((child, owner))
            elif isinstance(child, ast.Call):
                func = child.func
                facts.calls[getattr(func, "id", getattr(func, "attr", ""))].append(child)
            elif isinstance(child, ast.keyword) and child.arg:
                facts.keywords[child.arg].append((child, functions))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child is not docstring:
                    facts.strings.append(child)
            elif isinstance(child, ast.Subscript):
                facts.subscripts.append(child)
            elif isinstance(child, ast.Dict):
                facts.keys.update(
                    k.value for k in child.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                    if isinstance(target, ast.Name):
                        facts.assigned[target.id].append(child.lineno)
            elif isinstance(child, ast.ImportFrom):
                facts.modules.append((child.lineno, child.module or ""))
                if child.level == 0:
                    facts.imports.extend((child.module, alias.name) for alias in child.names)
                if not reexport:
                    facts.identifiers.update(alias.name for alias in child.names)
            elif isinstance(child, ast.Import):
                facts.modules.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ClassDef):
                facts.classes.append(child)
                visit(child, child.name, functions)
                continue
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                facts.defs[child.name].append(child)
                visit(child, owner, (*functions, child))
                continue
            visit(child, owner, functions)

    visit(_parse_text(text, filename), None, ())
    return facts._replace(
        identifiers=frozenset(facts.identifiers), names=frozenset(facts.names), keys=frozenset(facts.keys)
    )


@lru_cache(maxsize=None)
def _read(path: Path) -> str:
    return path.read_text()


@lru_cache(maxsize=None)
def _files(*trees: str) -> tuple[Path, ...]:
    """The Python files under each tree, a directory or a file under the root."""
    return tuple(
        p
        for t in trees
        for p in ([ROOT / t] if (ROOT / t).is_file() else sorted((ROOT / t).rglob("*.py")))
    )


def _where(path: Path) -> str:
    return str(path.relative_to(ROOT))


class Sources:
    """The repository's files; ``patched`` replaces the text of some (that
    is how the seeded cases plant what each rule must catch)."""

    def __init__(self, patched: dict[Path, str] | None = None) -> None:
        self.patched = patched or {}

    def text(self, path: Path) -> str:
        return self.patched[path] if path in self.patched else _read(path)

    def parse(self, path: Path) -> ast.Module:
        return _parse_text(self.text(path), str(path))

    def facts(self, path: Path) -> Facts:
        reexport = path.name == "__init__.py" and SRC in path.parents
        return _file_facts(self.text(path), str(path), reexport)

    def references(self, *trees: str) -> set[str]:
        return set().union(*(self.facts(p).identifiers for p in _files(*trees)))


# -- the OWNED table ---------------------------------------------------------------------


def _finds(name: str, match: str | dict[str, str]) -> dict[str, str]:
    """``{match kind: what a finding says}`` of one row."""
    return match if isinstance(match, dict) else {match: f"{VERBS[match]} {name}"}


def _uses(facts: Facts, name: str, kind: str) -> list[int | None]:
    """The lines where ``facts`` use ``name`` as ``kind`` (``None`` for a
    word or an identifier: one finding per file)."""
    if kind == "word":
        return [None] if name in facts.words else []
    if kind == "identifier":
        return [None] if name in facts.identifiers else []
    nodes = facts.calls if kind == "call" else facts.defs
    return [node.lineno for node in nodes.get(name, ())]


def owned_violations(sources: Sources, rule: str | None = None) -> list[str]:
    """Every use of an ``OWNED`` name (of ``rule``'s rows, or all) outside
    its owners, one line each."""
    return [
        f"{where} {says}" if line is None else f"{where}:{line} {says}"
        for name, row in OWNED.items()
        if rule in (None, row.rule)
        for path in _files(*row.trees)
        for where in [_where(path)]
        if where not in row.owners
        for kind, says in _finds(name, row.match).items()
        for line in _uses(sources.facts(path), name, kind)
    ]


# -- (a) every export has an importer -------------------------------------------------


def _exports(sources: Sources, init: Path) -> list[str] | None:
    for node in sources.parse(init).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


#: every package under ``src/repro`` that declares an ``__all__``
PACKAGE_INITS = {
    ".".join(init.parent.relative_to(SRC.parent).parts): init
    for init in sorted(SRC.rglob("__init__.py"))
    if init.parent != SRC and _exports(Sources(), init) is not None
}


def unused_exports(sources: Sources, package: str) -> list[str]:
    """Names the package's ``__all__`` exports that no file outside its
    directory imports through it."""
    directory = PACKAGE_INITS[package].parent
    imported = {
        name
        for path in _files(*CODE_TREES, "tests")
        if directory not in path.parents
        for module, name in sources.facts(path).imports
        if module == package
    }
    return [n for n in _exports(sources, PACKAGE_INITS[package]) if n not in imported]


@pytest.mark.parametrize("package", sorted(PACKAGE_INITS))
def test_every_export_is_imported_through_the_package(package):
    unused = unused_exports(Sources(), package)
    assert not unused, (
        f"{package}.__all__ exports names nothing outside the package imports "
        f"through it: {unused} -- drop the re-export; callers that need the name "
        "import it from the module that defines it"
    )


# -- (b) every public definition has a reference --------------------------------------


class MethodRefs(NamedTuple):
    """How one file's code reaches methods.  A ``pooled`` name counts for
    every method of that name; a ``typed`` row ``(receiver, method)`` only
    for the classes its receiver term can be: ``("self", C)`` (``self``,
    ``cls``, ``super()`` or ``cls(...)`` inside ``C``), ``("names", names)``
    (a class name), ``("attr", C, x)`` (``self.x`` inside ``C``; ``C`` is
    ``None`` for ``E.x`` on any other receiver ``E``), typed by
    ``attributes``, ``("call", callee)`` (what a call returns: ``callee``
    is ``("names", names)`` for a call by name, ``("method", receiver,
    m)`` for ``receiver.m(...)``), typed by ``returns``, or ``("union",
    terms)`` (a local assigned more than once)."""

    pooled: frozenset
    typed: frozenset
    attributes: dict  # (class or None, x) -> the callees assigned to x
    returns: dict  # ("function", f) / ("method", C, m) -> [what each def returns]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
#: the calls whose second argument names an attribute
_BY_NAME = ("getattr", "hasattr", "setattr")
#: the decorators that leave what a function returns as it is
_TRANSPARENT = {"staticmethod", "classmethod", "abstractmethod", "cache", "lru_cache", "property"}


def _callee(value: ast.expr | None) -> str | None:
    """The name a ``C(...)`` / ``module.C(...)`` value calls, else ``None``."""
    func = getattr(value, "func", None) if isinstance(value, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None))


def _callees(value: ast.expr | None) -> set[str]:
    """The names a value may call: either branch of ``a if c else b``, each
    operand of ``a or b``."""
    if isinstance(value, ast.IfExp):
        return _callees(value.body) | _callees(value.orelse)
    if isinstance(value, ast.BoolOp):
        return set().union(*map(_callees, value.values))
    return {name for name in [_callee(value)] if name}


def _targets(node: ast.AST) -> list[ast.expr]:
    """What an assignment statement assigns to (nothing, for any other)."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


def _bind(bindings: dict, name: str, source: tuple | ast.Call | None) -> None:
    """Add one binding: a list of sources, ``None`` once one is untyped."""
    found = bindings.get(name, [])
    bindings[name] = None if found is None or source is None else [*found, source]


def _scope_bindings(scope: ast.AST) -> dict[str, list | None]:
    """``{name: sources}`` of every name ``scope`` binds: an import or a
    class statement binds the term of its own name, a ``name = f(...)`` the
    call, typed when it is read; any other binding (a parameter, a loop
    target, ...) types it ``None``."""
    bindings: dict[str, list | None] = {}
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
            if arg is not None:
                _bind(bindings, arg.arg, None)
    typed: dict[int, ast.Call | None] = {}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = ("names", frozenset([node.name])) if isinstance(node, ast.ClassDef) else None
            _bind(bindings, node.name, name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 or isinstance(node, ast.AnnAssign):
            typed[id(_targets(node)[0])] = node.value if isinstance(node.value, ast.Call) else None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                _bind(bindings, alias.asname or alias.name.split(".")[0], ("names", frozenset([alias.name])))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                _bind(bindings, name, None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            _bind(bindings, node.name, None)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            _bind(bindings, node.id, typed.get(id(node)))
        stack.extend(ast.iter_child_nodes(node))
    return bindings


def _returned(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.expr] | None:
    """The values a function's ``return`` statements give (a bare ``return``
    or ``return None`` gives none: no method is reached on ``None``), or
    ``None`` for a generator, a coroutine or a function behind a decorator
    that may change what it returns."""
    decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in function.decorator_list}
    if isinstance(function, ast.AsyncFunctionDef) or decorators - _TRANSPARENT:
        return None
    values, stack = [], list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return None
        if isinstance(node, ast.Return) and node.value is not None:
            if not (isinstance(node.value, ast.Constant) and node.value.value is None):
                values.append(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return values


@lru_cache(maxsize=None)
def _method_refs(text: str, filename: str) -> MethodRefs:
    """One file's ``MethodRefs``: every attribute read, typed by its
    receiver where the receiver's scope says what it is, and the term of
    every value each function returns (``None`` where untyped)."""
    pooled, typed, attributes, returns = set(), set(), defaultdict(set), defaultdict(list)
    stored: dict[int, ast.expr | None] = {}  # an assignment's target -> its value

    def lookup(name: str, scopes: tuple, seen: frozenset) -> tuple | None:
        """A name's term: its bindings' in the nearest scope that binds it
        (a class body is seen only from itself), else a global name."""
        for depth, (kind, names, owner) in enumerate(reversed(scopes)):
            if name in names and (depth == 0 or kind != "class"):
                if names[name] is None:
                    return None
                outer = scopes[: len(scopes) - depth]
                terms = [s if isinstance(s, tuple) else call(s, outer, owner, seen) for s in names[name]]
                if None in terms:
                    return None
                return terms[0] if len(terms) == 1 else ("union", frozenset(terms))
        return ("names", frozenset([name]))

    def call(node: ast.Call, scopes: tuple, owner: str | None, seen: frozenset) -> tuple | None:
        """The term of what a call returns (``None`` on a cycle of locals)."""
        if id(node) in seen:
            return None
        seen, func = seen | {id(node)}, node.func
        if isinstance(func, ast.Attribute):
            return ("call", ("method", receiver(func.value, scopes, owner, seen), func.attr))
        if not isinstance(func, ast.Name):
            return None
        if owner and func.id == "cls":
            return ("self", owner)
        callee = lookup(func.id, scopes, seen)
        return ("call", callee) if callee and callee[0] == "names" else None

    def receiver(value: ast.expr, scopes: tuple, owner: str | None, seen: frozenset = frozenset()) -> tuple | None:
        if owner and (
            getattr(value, "id", "") in ("self", "cls")
            or isinstance(value, ast.Call) and getattr(value.func, "id", "") == "super"
        ):
            return ("self", owner)
        if isinstance(value, ast.Attribute):
            return ("attr", owner if getattr(value.value, "id", "") == "self" else None, value.attr)
        if isinstance(value, ast.Call):
            return call(value, scopes, owner, seen)
        return lookup(value.id, scopes, seen) if isinstance(value, ast.Name) else None

    def visit(node: ast.AST, scopes: tuple, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for part in (*child.bases, *child.keywords, *child.decorator_list):
                    visit(part, scopes, owner)
                for stmt in child.body:  # a class attribute is self.x's too
                    for target in _targets(stmt):
                        if isinstance(target, ast.Name):
                            attributes[child.name, target.id] |= _callees(stmt.value)
                body = ast.Module(child.body, [])
                visit(body, (*scopes, ("class", _scope_bindings(body), child.name)), child.name)
                continue
            if isinstance(child, _FUNCTIONS):
                args = child.args
                for part in (*getattr(child, "decorator_list", ()), *args.defaults, *args.kw_defaults):
                    if part is not None:
                        visit(part, scopes, owner)
                inner = (*scopes, ("function", _scope_bindings(child), owner))
                if not isinstance(child, ast.Lambda):
                    key = ("method", owner, child.name) if scopes[-1][0] == "class" else ("function", child.name)
                    values = _returned(child)
                    returns[key].extend(
                        [None] if values is None else [receiver(v, inner, owner) for v in values]
                    )
                body = child.body if isinstance(child.body, list) else [child.body]
                visit(ast.Module(body, []), inner, owner)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                for target in _targets(child):
                    stored[id(target)] = child.value
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                found = receiver(child.value, scopes, owner)
                if found is None:
                    pooled.add(child.attr)
                else:
                    typed.add((found, child.attr))
            elif isinstance(child, ast.Attribute):
                on_self = owner if getattr(child.value, "id", "") == "self" else None
                attributes[on_self, child.attr] |= _callees(stored.get(id(child)))
            elif isinstance(child, ast.Call) and getattr(child.func, "id", "") in _BY_NAME:
                name = child.args[1] if len(child.args) > 1 else None
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    pooled.add(name.value)
            visit(child, scopes, owner)

    tree = _parse_text(text, filename)
    visit(tree, (("module", _scope_bindings(tree), None),), None)
    return MethodRefs(frozenset(pooled), frozenset(typed), dict(attributes), dict(returns))


def _hierarchy(sources: Sources, trees: tuple[str, ...]) -> dict[str, set[str]]:
    """``{class: its base names}`` of every class under ``trees`` (same-named
    classes pool their bases)."""
    bases = defaultdict(set)
    for path in _files(*trees):
        for node in sources.facts(path).classes:
            bases[node.name].update(getattr(b, "id", getattr(b, "attr", "")) for b in node.bases)
    return bases


def _ancestors(name: str, bases: dict[str, set[str]]) -> set[str]:
    """Every class ``name`` derives from, bases resolved by name."""
    found, stack = set(), [name]
    while stack:
        for base in bases.get(stack.pop(), ()):
            if base in bases and base not in found:
                found.add(base)
                stack.append(base)
    return found


def _readme_code(sources: Sources) -> str:
    """README's python blocks, one module (CI's ``examples`` job runs them
    in order in one namespace)."""
    return "\n".join(re.findall(r"```python\n(.*?)```", sources.text(README), re.S))


def _reached_methods(sources: Sources) -> tuple[set[str], set[str]]:
    """``(pooled, reached)``: the method names a product reference counts
    for whatever their class, and the ``Class.method`` keys a typed one
    reaches -- under ``CODE_TREES`` and in README's python blocks.  What a
    function returns is typed to a fixpoint: every def starts at no class
    and grows by what its returns reach, ``None`` (untyped) once one is."""
    bases = _hierarchy(sources, CODE_TREES)
    ancestors = {name: _ancestors(name, bases) for name in bases}
    descendants = defaultdict(set)
    for name, found in ancestors.items():
        for ancestor in found:
            descendants[ancestor].add(name)
    texts = [(sources.text(p), str(p)) for p in _files(*CODE_TREES)] + [(_readme_code(sources), "README.md")]
    refs = [_method_refs(text, filename) for text, filename in texts]
    attributes = defaultdict(set)  # x -> {class or None: the callees assigned to x}
    returns = defaultdict(list)  # a def's key -> the terms its returns give, pooled by key
    for ref in refs:
        for (owner, attr), callees in ref.attributes.items():
            attributes[attr].add((owner, frozenset(callees)))
        for key, terms in ref.returns.items():
            returns[key].extend(terms)

    def classes(names) -> frozenset:
        """The classes a receiver built by these callees can be."""
        return frozenset(c for n in names if n in bases for c in (n, *ancestors[n]))

    def relatives(name) -> set:
        return {name} | ancestors.get(name, set()) | descendants[name]

    def union(parts: list) -> frozenset | None:
        return None if None in parts else frozenset().union(*parts)

    returned = dict.fromkeys(returns, frozenset())

    def resolve(term: tuple | None) -> frozenset | None:
        """The classes a receiver term can be: empty if none yet, ``None``
        if the rule cannot say."""
        if term is None:
            return None
        kind, name = term[:2]
        if kind == "self":
            return frozenset() if "Protocol" in bases.get(name, ()) else frozenset(relatives(name))
        if kind == "names":
            return classes(name) if all(n in bases for n in name) else None
        if kind == "attr":
            return classes(
                n
                for owner, callees in attributes[term[2]]
                if name is None or owner in relatives(name)
                for n in callees
            ) or None
        if kind == "union":
            return union([resolve(t) for t in name])
        if name[0] == "names":  # a call by name: a constructor, or functions of that name
            return union([
                classes([n]) if n in bases else returned.get(("function", n)) for n in name[1]
            ])
        _, on, method = name
        found = resolve(on)
        if found == frozenset():
            return found
        defined = [returned[key] for c in found or () for key in [("method", c, method)] if key in returned]
        if defined:
            return union(defined)
        return classes([method]) if found is None and method in bases else None

    changed = True
    while changed:
        changed = False
        for key, terms in returns.items():
            if returned[key] is not None:
                found = union([resolve(t) for t in terms])
                changed |= found != returned[key]
                returned[key] = found

    pooled, reached = set(), set()
    for ref in refs:
        pooled |= ref.pooled
        for receiver, method in ref.typed:
            found = resolve(receiver)
            if found:
                reached.update(f"{c}.{method}" for c in found)
            else:
                pooled.add(method)
    return pooled, reached


def _public_definitions(sources: Sources) -> tuple[list, list]:
    """``([(file, name)], [(file, Class.method)])``: every public top-level
    class and function, and every public method of every class, under
    ``src/repro``."""
    definitions, methods = [], []
    for path in _files("src"):
        if path.name == "__init__.py":
            continue
        where = _where(path)
        definitions += [
            (where, node.name)
            for node in sources.parse(path).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_")
        ]
        methods += [
            (where, f"{node.name}.{sub.name}")
            for node in sources.facts(path).classes
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_")
        ]
    return definitions, methods


def _registry_references(sources: Sources) -> set[str]:
    """Classes named by a ``"module:Class"`` string in the method registry
    (a row references its class, not the class's methods)."""
    return {
        match.group(1)
        for node in sources.facts(REGISTRY).strings
        for match in [re.search(r":(\w+)$", node.value)]
        if match
    }


def unreferenced_definitions(sources: Sources) -> list[str]:
    """Every definition nothing but tests reaches, then every allow-list
    entry that stopped being true, one line each."""
    definitions, methods = _public_definitions(sources)
    readme = _file_facts(_readme_code(sources), "README.md", False).identifiers
    used = sources.references(*CODE_TREES) | readme | _registry_references(sources)
    pooled, reached = _reached_methods(sources)
    used |= reached | {key for _, key in methods if key.rsplit(".", 1)[1] in pooled}
    allowed = PROTOCOLS | TEST_ONLY
    defined = {symbol for _, symbol in definitions + methods}
    used_by_tests = sources.references("tests")
    return (
        [f"{where}: {symbol} is unreferenced" for where, symbol in definitions + methods
         if symbol not in used and symbol not in allowed]
        + [f"{n} is allow-listed but gone or reached" for n in sorted(allowed) if n not in defined or n in used]
        + [f"{n} is on TEST_ONLY but no test names it" for n in sorted(TEST_ONLY)
           if n.rsplit(".", 1)[-1] not in used_by_tests]
    )


def test_every_public_definition_is_referenced():
    found = unreferenced_definitions(Sources())
    assert not found, (
        f"{found} -- delete what nothing under {CODE_TREES} or README's python "
        "blocks reaches (with its __all__ entry, tests and docs), or, for a "
        "feature only tests exercise, list it in TEST_ONLY with a reason"
    )


# -- (c) every example imports ---------------------------------------------------------


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_imports(example):
    spec = importlib.util.spec_from_file_location(f"_census_{example.stem}", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not as __main__: the example does not run


# -- (d) every knob has a second product value ----------------------------------------


class Knob(NamedTuple):
    """One defaulted parameter of one callable: ``key`` is
    ``Callable.param`` (a constructor is its class, a method
    ``Class.method``), ``default`` its value when a call omits it."""

    key: str
    path: Path
    default: object


class Signature(NamedTuple):
    """What a call binds: the positional parameters after ``self``, every
    parameter it may name, and the knobs among them."""

    qualname: str
    positional: tuple[str, ...]
    params: tuple[str, ...]
    knobs: dict  # param -> Knob

    def key(self, param: str) -> str:
        """``Callable.param``: a knob's own key (a dataclass's inherited
        field keeps its base's)."""
        return self.knobs[param].key if param in self.knobs else f"{self.qualname}.{param}"


class Unique(NamedTuple):
    """A value unlike any other: a non-literal argument, or a spread."""

    where: object


def _literal(node: ast.expr | None, unique: object) -> object:
    """A literal's value, or ``unique`` (a non-literal default is itself)."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return unique
    try:
        hash(value)
    except TypeError:
        return ("unhashable", repr(value))
    return value


def _decorated(node: ast.AST, name: str) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return decorator
    return None


def _function_signature(node: ast.FunctionDef, qualname: str, path: Path, method: bool) -> Signature:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    if method and not _decorated(node, "staticmethod"):
        positional = positional[1:]
    knobs = {
        name: Knob(f"{qualname}.{name}", path, _literal(default, ("default", qualname, name)))
        for name, default in defaults.items()
    }
    return Signature(qualname, tuple(positional), (*positional, *(a.arg for a in args.kwonlyargs)), knobs)


def _dataclass_fields(node: ast.ClassDef, path: Path) -> tuple[list[str], dict]:
    """The constructor fields a ``@dataclass`` body declares, and the knobs
    among them when the dataclass is ``frozen=True``."""
    decorator = _decorated(node, "dataclass")
    frozen = isinstance(decorator, ast.Call) and any(
        k.arg == "frozen" and getattr(k.value, "value", False) is True for k in decorator.keywords
    )
    fields, knobs = [], {}
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        name, value = stmt.target.id, stmt.value
        unique = ("default", node.name, name)
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            value = options.get("default", options.get("default_factory"))
            default = _literal(options["default"], unique) if "default" in options else unique
        else:
            default = _literal(value, unique)
        fields.append(name)
        if value is not None and frozen:
            knobs[name] = Knob(f"{node.name}.{name}", path, default)
    return fields, knobs


@lru_cache(maxsize=None)
def _file_callables(text: str, filename: str) -> tuple[dict, dict]:
    """``(callables, classes)`` of one file: ``{name: [Signature]}`` (a
    class by its name, with its constructor or its dataclass fields, or
    ``None`` when it inherits them) and ``{class: its base names}``."""
    path = Path(filename)
    callables: dict[str, list] = defaultdict(list)
    classes: dict[str, tuple] = {}

    def visit(node: ast.AST, scope: tuple[str, ...], owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases = tuple(getattr(b, "id", getattr(b, "attr", "")) for b in child.bases)
                classes[child.name] = bases
                init = next(
                    (s for s in child.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"),
                    None,
                )
                if init is not None:
                    signature = _function_signature(init, child.name, path, method=True)
                elif _decorated(child, "dataclass"):
                    fields, knobs = _dataclass_fields(child, path)
                    signature = ("dataclass", tuple(fields), knobs)
                else:
                    signature = None
                callables[child.name].append(signature)
                visit(child, (*scope, child.name), child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "__init__":
                    qualname = ".".join((*scope, child.name))
                    method = owner is not None and node is owner
                    callables[child.name].append(_function_signature(child, qualname, path, method))
                visit(child, (*scope, child.name), None)
            else:
                visit(child, scope, owner)

    visit(_parse_text(text, filename), (), None)
    return dict(callables), classes


def _display_keywords(value: ast.expr) -> dict | None:
    """``{key: value node}`` of the string-constant keys of a dict display
    that forwards no mapping (``f(**{"k": v})``; a computed key is a
    ``None`` key), else ``None``."""
    if not isinstance(value, ast.Dict) or None in value.keys:
        return None
    return {
        k.value if isinstance(k, ast.Constant) and isinstance(k.value, str) else None: v
        for k, v in zip(value.keys, value.values)
    }


class Spread(NamedTuple):
    """A ``**`` spread that forwards keywords the call does not name."""

    line: int
    text: str


def _rebound(function: ast.AST) -> set[str]:
    """The names a function's body binds (a comprehension's or a nested
    scope's too): a parameter among them is no longer what its callers
    passed."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not function:
            found.add(node.name)
    return found


@lru_cache(maxsize=None)
def _file_calls(text: str, filename: str) -> tuple:
    """``(callee name, positional, {keyword: value node}, spread, forwards)``
    of every call in one file: ``super().__init__`` and
    ``Base.__init__(self, ...)`` call the base by name, ``cls(...)`` its
    class.  A ``**`` dict display passes its constant keys as keywords;
    ``spread`` is a ``Spread`` for any other ``**`` argument (a display that
    spreads a mapping too), ``True`` for a ``*`` argument or a display's
    computed key, else ``False``.  Under ``src/repro``, ``forwards`` maps
    the name of each parameter of the callable the call is in to that
    parameter's ``Callable.param``, the key ``_file_callables`` gives it
    (``self`` and ``*`` / ``**`` parameters aside, and any the body
    rebinds); elsewhere it is empty."""
    calls = []
    path = Path(filename)
    forwarding = SRC in path.parents

    def visit(node: ast.AST, owner: ast.ClassDef | None, scope: tuple, forwards: dict) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, (*scope, child.name), {})
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = owner is not None and node is owner
                qualname = owner.name if method and child.name == "__init__" else ".".join((*scope, child.name))
                inner = {}
                if forwarding:
                    signature = _function_signature(child, qualname, path, method)
                    rebound = _rebound(child)
                    inner = {p: signature.key(p) for p in signature.params if p not in rebound}
                visit(child, owner, (*scope, child.name), inner)
                continue
            if isinstance(child, ast.Lambda):
                visit(child, owner, scope, {})
                continue
            if isinstance(child, ast.Call):
                func, args = child.func, list(child.args)
                names = [getattr(func, "id", getattr(func, "attr", ""))]
                if names == ["__init__"]:
                    value = func.value
                    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "super":
                        names = [getattr(b, "id", getattr(b, "attr", "")) for b in owner.bases] if owner else []
                    else:
                        names, args = [getattr(value, "id", getattr(value, "attr", ""))], args[1:]
                elif names == ["cls"] and owner is not None:
                    names = [owner.name]
                spread = any(isinstance(a, ast.Starred) for a in args)
                keywords = {}
                for k in child.keywords:
                    if k.arg:
                        keywords[k.arg] = k.value
                    elif (display := _display_keywords(k.value)) is not None:
                        spread = spread or None in display
                        keywords.update((key, v) for key, v in display.items() if key is not None)
                    else:
                        spread = Spread(child.lineno, f"**{ast.unparse(k.value)}")
                calls.extend((name, tuple(args), keywords, spread, forwards) for name in names)
            visit(child, owner, scope, forwards)

    visit(_parse_text(text, filename), None, (), {})
    return tuple(calls)


def _registry_calls(sources: Sources) -> list[tuple]:
    """Each keyed ``core/registry.py`` row as a call of the class it names:
    ``Class(db, **args)`` (a ``{"fast": ..., "full": ...}`` value or
    ``SEED`` is no one literal)."""
    tree = sources.parse(REGISTRY)
    constants = {
        t.id: node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name)
    }
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "MethodInfo"):
            continue
        row = list(node.args) + [k.value for k in node.keywords]
        if len(row) < 7 or not getattr(row[6], "value", ""):
            continue
        args = constants.get(getattr(row[7], "id", None), row[7]) if len(row) > 7 else ast.Dict([], [])
        keywords = {
            k.value: ast.Name("budget") if isinstance(value, ast.Dict) else value
            for k, v in zip(args.keys, args.values)
            for value in [constants.get(getattr(v, "id", None), v)]
        }
        impl = re.search(r":(\w+)\W*$", ast.unparse(row[5])).group(1)
        calls.append((impl, (ast.Name("db"),), keywords, False, {}))
    return calls


def _resolve(name: str, callables: dict, classes: dict, seen: frozenset = frozenset()) -> list[Signature]:
    """The signatures a call of ``name`` binds: every same-named callable's;
    a class without its own constructor binds its bases', a dataclass its
    bases' fields first."""
    resolved = []
    for signature in callables.get(name, ()):
        if isinstance(signature, Signature):
            resolved.append(signature)
            continue
        inherited = [
            s for base in classes.get(name, ()) if base not in seen
            for s in _resolve(base, callables, classes, seen | {name})
        ]
        if signature is None:
            resolved.extend(inherited)
            continue
        _, fields, knobs = signature
        positional = tuple(p for s in inherited[:1] for p in s.positional) + fields
        base_knobs = {k: v for s in inherited[:1] for k, v in s.knobs.items()}
        resolved.append(Signature(name, positional, positional, {**base_knobs, **knobs}))
    return resolved


def _callables(sources: Sources) -> tuple[dict, dict]:
    """``({name: [Signature]}, {class: its base names})`` under ``src/repro``."""
    callables, classes = defaultdict(list), {}
    for path in _files("src"):
        found, bases = _file_callables(sources.text(path), str(path))
        for name, signatures in found.items():
            callables[name].extend(signatures)
        classes.update(bases)
    return callables, classes


def forwarded_spreads(sources: Sources) -> list[str]:
    """Every ``**`` spread but a dict display that goes into a callable with
    knobs: the knobs it forwards are out of the rule's sight."""
    callables, classes = _callables(sources)
    return [
        f"{_where(path)}:{spread.line} spreads {spread.text} into {name}"
        for path in _files(*CODE_TREES)
        for name, _, _, spread, _ in _file_calls(sources.text(path), str(path))
        if isinstance(spread, Spread) and any(s.knobs for s in _resolve(name, callables, classes))
    ]


def knob_values(sources: Sources, *trees: str) -> tuple[dict, dict]:
    """``({Callable.param: Knob}, {Callable.param: {(value, via)}})``: every
    knob under ``src/repro`` that some call names (a callable nothing calls
    by name is rule (b)'s), and the values the calls under ``trees`` give
    each parameter of a callable they name (a product run, one whose
    ``trees`` hold ``src``, adds the registry rows and README's python
    blocks).  A forwarded argument (see ``_file_calls``) gives the values
    its own parameter takes, resolved to a fixpoint over the full value
    set (a cycle adds nothing); ``via`` is the nearest allow-listed knob a
    value was forwarded through, else ``None``."""
    callables, classes = _callables(sources)
    calls = [c for p in _files(*trees) for c in _file_calls(sources.text(p), str(p))]
    if "src" in trees:
        calls += _registry_calls(sources)
        calls += _file_calls(_readme_code(sources), str(README))
    knobs, values, forwarded, passed = {}, defaultdict(set), defaultdict(set), defaultdict(list)
    for i, (name, args, keywords, spread, forwards) in enumerate(calls):
        for signature in _resolve(name, callables, classes):
            knobs.update((knob.key, knob) for knob in signature.knobs.values())
            bound = dict(zip(signature.positional, args), **keywords)
            for param in signature.params:
                key, node = signature.key(param), bound.get(param)
                if spread or (node is None and param not in signature.knobs):
                    values[key].add((Unique(i), None))
                elif node is None:
                    values[key].add((signature.knobs[param].default, None))
                elif isinstance(node, ast.Name) and node.id in forwards:
                    forwarded[key].add(forwards[node.id])
                else:
                    passed[key].append((node, i))
    # only a knob's values, and a forwarded parameter's, are ever read
    for key in (knobs.keys() | set().union(*forwarded.values())) & passed.keys():
        values[key].update((_literal(node, Unique(i)), None) for node, i in passed[key])
    allowed = POSITIONAL.keys() | TEST_SEAMS.keys()
    dependents = defaultdict(set)
    for key, origins in forwarded.items():
        for origin in origins:
            dependents[origin].add(key)
    pending = set(forwarded)
    while pending:
        key = pending.pop()
        arrived = {
            (value, origin if origin in allowed else via)
            for origin in forwarded[key]
            for value, via in values.get(origin, ())
        }
        if not arrived <= values[key]:
            values[key] |= arrived
            pending |= dependents[key]
    return knobs, values


def single_valued_knobs(sources: Sources) -> list[str]:
    """Every forwarded ``**`` spread, every knob its product calls give
    exactly one value, less the allow-lists and the knobs whose every value
    arrives through an allow-listed one, every knob defaulting to ``None``
    that no product call gives ``None``, then every allow-list entry that
    names no one-valued knob."""
    knobs, values = knob_values(sources, *CODE_TREES)
    single = {
        key: value
        for key in knobs
        for found in [{value for value, _ in values[key]}]
        if len(found) == 1
        for value in found
        if not isinstance(value, Unique)
    }
    allowed = POSITIONAL.keys() | TEST_SEAMS.keys()
    covered = {key for key in single if all(via for _, via in values[key])}
    flagged = [
        f"{_where(knobs[key].path)}: {key} has one product value {single[key]!r}"
        for key in sorted(single.keys() - allowed - covered)
    ]
    filled = [
        f"{_where(knob.path)}: {key} defaults to None, which no product call gives it"
        for key, knob in sorted(knobs.items())
        if knob.default is None and None not in {value for value, _ in values[key]}
    ]
    stale = [f"{key} is allow-listed but has no one product value" for key in sorted(allowed - single.keys())]
    return forwarded_spreads(sources) + flagged + filled + stale


def test_every_keyword_parameter_is_named_outside_its_definers():
    """Rule (d): the calls that set a knob are its callable's, and they
    give it a second product value."""
    found = single_valued_knobs(Sources())
    assert not found, (
        f"{found} -- make each knob the constant it is in its callable (a test that "
        "turns it runs at that value), or list it in POSITIONAL / TEST_SEAMS with a "
        "reason; drop an allow-list entry whose knob has a second product value"
    )
    assert not POSITIONAL.keys() & TEST_SEAMS.keys()
    tests = [
        p
        for p in _files("tests")
        if not p.name.endswith("_reference.py") and p != Path(__file__).resolve()
    ]
    knobs, values = knob_values(Sources(), *(_where(p) for p in tests))
    turned = {key for key, knob in knobs.items() if {value for value, _ in values[key]} - {knob.default}}
    untested = sorted(n for n in TEST_SEAMS if n not in turned)
    assert not untested, f"TEST_SEAMS names no test turns: {untested} -- fold them"


# -- (e) one record per boundary ------------------------------------------------------

#: every dataclass that may carry a query's ``latency_ms``, with the
#: boundary it records (``Rejected``, the sixth record, has no latency)
RECORDS = {
    "ExecutionResult": "a plan was executed (engine/simulator.py)",
    "Decision": "a query was decided, by a backend or the offline loop (core/interfaces.py)",
    "Served": "a request was admitted and served (serve/runtime.py)",
    "QueryLogEntry": "what the database user sees: rendered SQL, bounded log (pilotscope/console.py)",
    "ExperienceRecord": "a store's unit: mutable, de-duplicated, sampled (lifecycle/experience.py)",
}


def _is_dataclass_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "dataclass"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(map(_is_dataclass_decorator, node.decorator_list))


def _classes(sources: Sources) -> dict[str, ast.ClassDef]:
    return {node.name: node for path in _files("src") for node in sources.facts(path).classes}


def latency_records(sources: Sources) -> list[str]:
    """Every ``@dataclass`` under ``src/repro`` with a ``latency_ms`` field
    of its own or of a base class (bases resolved by name)."""
    classes = _classes(sources)

    def has_field(node: ast.ClassDef, seen=()) -> bool:
        if any(
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "latency_ms"
            for stmt in node.body
        ):
            return True
        return any(
            isinstance(base, ast.Name)
            and base.id in classes
            and base.id not in seen
            and has_field(classes[base.id], (*seen, node.name))
            for base in node.bases
        )

    return sorted(n for n, node in classes.items() if _is_dataclass(node) and has_field(node))


def test_every_latency_record_is_a_listed_boundary():
    found = latency_records(Sources())
    extra = [n for n in found if n not in RECORDS]
    assert not extra, (
        f"dataclasses with a latency_ms field that are not a listed record: {extra} -- "
        f"return or extend the record of that boundary instead: {RECORDS}"
    )
    assert found == sorted(RECORDS), f"listed but gone: {sorted(set(RECORDS) - set(found))}"


# -- (f) one bench contract ------------------------------------------------------------


def _parameters(function: ast.FunctionDef) -> set[str]:
    args = function.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def bench_contract_violations(sources: Sources) -> list[str]:
    """What under ``benchmarks/`` has left the ``measure(seed)`` -> ``export``
    -> gates contract, one line each."""
    found = []
    registry = next(
        ast.literal_eval(node.value)
        for node in sources.parse(BENCH / "__init__.py").body
        if isinstance(node, ast.AnnAssign) and node.target.id == "BENCHMARKS"
    )
    for key, (module, _) in registry.items():
        path = BENCH / f"{module}.py"
        top = set()
        for node in sources.parse(path).body:
            if isinstance(node, ast.FunctionDef):
                top.add(node.name)
            elif isinstance(node, ast.Assign):
                top.update(t.id for t in node.targets if isinstance(t, ast.Name))
        tabled = not re.fullmatch(r"p([2-9]|10)", key)
        needed = ["export", "measure"] if tabled else ["export"]
        found += [f"{module}.py defines no top-level {n}" for n in needed if n not in top]
        found += [
            f"{module}.py:{keyword.value.lineno}: {function.name}(seed) pins seed={keyword.value.value}"
            for keyword, functions in sources.facts(path).keywords.get("seed", ())
            if isinstance(keyword.value, ast.Constant) and isinstance(keyword.value.value, int)
            for function in functions
            if "seed" in _parameters(function)
        ]
    for path in _files("benchmarks"):
        facts = sources.facts(path)
        found += [
            f"{path.name}: {node.name} takes {what}"
            for nodes in facts.defs.values()
            for node in nodes
            for parameter, what in (("benchmark", "the benchmark fixture"), ("profile", "a profile"))
            if parameter in _parameters(node)
        ]
        found += [f"{path.name}:{n.lineno}: reads os.environ" for n, _ in facts.attributes.get("environ", ())]
        found += [f"{path.name}:{line}: defines _PROFILES" for line in facts.assigned.get("_PROFILES", ())]
    return found


def test_every_bench_is_measure_export_gates():
    found = bench_contract_violations(Sources())
    assert not found, (
        f"outside the one bench contract (benchmarks/contract.py): {found} -- every "
        "bench exports, a T/E/P1 bench measures, every bench has one size (more is "
        "more seeds) and offsets each seed by its argument"
    )


# -- (g) the request path is single-writer --------------------------------------------

#: the records built once per request that carry no latency; with every
#: frozen record of (e) they must be slotted and built by ``slot_init``
REQUEST_RECORDS = {"Request", "Rejected"}


def _dataclass_flags(node: ast.ClassDef) -> dict:
    """The constant keywords of a class's ``@dataclass(...)`` decorator."""
    return {
        keyword.arg: keyword.value.value
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call)
        for keyword in decorator.keywords
        if isinstance(keyword.value, ast.Constant)
    }


def _slot_init_first(node: ast.ClassDef) -> bool:
    """Whether ``@slot_init`` sits directly above the ``@dataclass``."""
    decorators = node.decorator_list
    return any(
        getattr(above, "id", "") == "slot_init" and _is_dataclass_decorator(below)
        for above, below in zip(decorators, decorators[1:])
    )


def single_writer_violations(sources: Sources) -> list[str]:
    """Per-request records that are not slotted or not built by
    ``slot_init``, and modules under ``src/repro`` that import
    ``threading``, one line each."""
    found = [
        f"{_where(path)}:{line} imports threading"
        for path in _files("src")
        for line, module in sources.facts(path).modules
        if module.split(".")[0] == "threading"
    ]
    classes = {n: node for n, node in _classes(sources).items() if _is_dataclass(node)}
    flags = {n: _dataclass_flags(node) for n, node in classes.items()}
    slotted = {n for n in RECORDS if flags.get(n, {}).get("frozen")} | REQUEST_RECORDS
    for name in sorted(slotted):
        if not flags.get(name, {}).get("slots"):
            found.append(f"{name} is not slots=True")
        if name not in classes or not _slot_init_first(classes[name]):
            found.append(f"{name} is not built by @slot_init")
    return found


def test_request_path_is_single_writer():
    found = single_writer_violations(Sources())
    assert not found, (
        f"{found} -- one loop writes the bus and builds every per-request record: "
        "no lock, no thread, and each record a frozen, slotted dataclass whose "
        "__init__ slot_init writes (@slot_init directly above its @dataclass)"
    )


# -- (h) one LRU ------------------------------------------------------------------------


def _lru_classes(sources: Sources) -> set[str]:
    """``BoundedLRU`` and every class under ``src/repro`` that derives from
    it (bases resolved by name)."""
    bases = _hierarchy(sources, ("src",))
    return {"BoundedLRU"} | {name for name in bases if "BoundedLRU" in _ancestors(name, bases)}


def lru_entries_violations(sources: Sources) -> list[str]:
    """Every ``._entries`` outside ``core/lru.py`` that may be a
    ``BoundedLRU``'s: anything but ``self._entries`` in a class that is no
    LRU (the rewrite leaderboard keeps a list of that name)."""
    lru = _lru_classes(sources)
    return [
        f"{_where(path)}:{node.lineno} touches _entries"
        for path in _files(*CODE_TREES, "tests")
        if path != SRC / "core" / "lru.py"
        for node, owner in sources.facts(path).attributes.get("_entries", ())
        if not (isinstance(node.value, ast.Name) and node.value.id == "self")
        or owner is None
        or owner in lru
    ]


def test_only_the_lru_touches_its_entries():
    found = lru_entries_violations(Sources())
    assert not found, (
        f"{found} -- a BoundedLRU's entries are its own: read through get / peek, "
        "write through put, so the counters and the eviction order stay true"
    )


# -- (k) one subset enumeration --------------------------------------------------------


def subset_enumeration_violations(sources: Sources) -> list[str]:
    """Every ``combinations`` call with a non-literal size under ``src/``
    outside ``ENUMERATORS``."""
    return [
        f"{_where(path)}:{node.lineno} enumerates subsets"
        for path in _files("src")
        if _where(path) not in ENUMERATORS
        for node in sources.facts(path).calls.get("combinations", ())
        if not all(
            isinstance(a, ast.Constant)
            for a in node.args[1:2] + [k.value for k in node.keywords if k.arg == "r"]
        )
    ]


# -- (m) one template identity -----------------------------------------------------------

#: a ``?`` where a literal would stand: after a space, a parenthesis or a comma
PLACEHOLDER = re.compile(r"[\s(,]\?(?:$|[\s),])")


def placeholder_violations(sources: Sources) -> list[str]:
    """Every placeholder string (not a docstring) and every ``join`` of a
    ``"?"`` under ``src/``, ``benchmarks/`` or ``examples/``, one line each."""
    found = []
    for path in _files(*PRODUCT):
        facts = sources.facts(path)
        found += [
            f"{_where(path)}:{node.lineno} renders a placeholder"
            for node in facts.strings
            if PLACEHOLDER.search(node.value)
        ]
        found += [
            f"{_where(path)}:{node.lineno} joins placeholders"
            for node in facts.calls.get("join", ())
            if any(isinstance(n, ast.Constant) and n.value == "?" for a in node.args for n in ast.walk(a))
        ]
    return found


# -- (n) one tree-conv training plan -----------------------------------------------------


def _names_idx3(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "idx3" for n in ast.walk(node))


def gather_violations(sources: Sources) -> list[str]:
    """Every subscript or ``take`` at an ``.idx3`` under ``src/``,
    ``benchmarks/`` or ``examples/`` outside ``PLAN_OWNER``, one line each."""
    return [
        f"{_where(path)}:{node.lineno} gathers at idx3"
        for path in _files(*PRODUCT)
        if _where(path) not in PLAN_OWNER
        for node in (
            *(s for s in sources.facts(path).subscripts if _names_idx3(s.slice)),
            *(c for c in sources.facts(path).calls.get("take", ()) if any(map(_names_idx3, c.args))),
        )
    ]


# -- (p) every import is used ---------------------------------------------------------


def unused_imports(sources: Sources) -> list[str]:
    """Every module-level import under ``src/``, ``benchmarks/``,
    ``examples/`` or ``tests/`` whose name its module never reads (a
    package ``__init__`` re-exports, which rule (a) polices, and a name in
    a module's ``__all__`` is exported)."""
    return [
        f"{_where(path)}:{line} imports {name}, unused"
        for path in _files(*PRODUCT, "tests")
        if not (path.name == "__init__.py" and SRC in path.parents)
        for facts in [sources.facts(path)]
        for line, name in facts.bound
        if name not in facts.names and name not in (_exports(sources, path) or ())
    ]


def test_every_import_is_used():
    found = unused_imports(Sources())
    assert not found, f"{found} -- delete each import its module does not use"


# -- (q) a contract is its signature ----------------------------------------------------


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def probe_violations(sources: Sources) -> list[str]:
    """Every literal-name probe of a non-dunder member under ``PRODUCT``,
    then every ``__getattr__`` under ``src/``, one line each."""
    probes = [
        f"{_where(path)}:{call.lineno} probes {name}({attr.value!r})"
        for path in _files(*PRODUCT)
        for name in _BY_NAME
        for call in sources.facts(path).calls.get(name, ())
        if getattr(call.func, "id", None) == name and len(call.args) > 1
        for attr in [call.args[1]]
        if isinstance(attr, ast.Constant) and isinstance(attr.value, str) and not _dunder(attr.value)
    ]
    proxies = [
        f"{_where(path)}:{node.lineno} defines __getattr__"
        for path in _files("src")
        for node in sources.facts(path).defs.get("__getattr__", ())
    ]
    return probes + proxies


def test_no_protocol_member_is_probed():
    found = probe_violations(Sources())
    assert not found, (
        f"{found} -- make the member part of its protocol (every implementer "
        "declares it, test fakes included) and read it directly; tell record "
        "types apart with isinstance; a wrapper forwards what it declares"
    )


# -- what product runs enter -----------------------------------------------------------

#: rule (s): functions no product run enters, kept: ``path:Qual.name`` (a
#: class covers its methods) -> the item that gives it a caller, the test
#: that holds a path to it as the reference, the input it rejects or the
#: error it handles
UNENTERED = {
    # -- ROADMAP item 7: paper methods with no bench row yet
    "src/repro/e2e/balsa.py:BalsaOptimizer.__init__": "ROADMAP item 7: Balsa, an E8 / E9 row; only its registry row names it",
    "src/repro/e2e/leon.py:LeonOptimizer.__init__": "ROADMAP item 7: LEON, an E8 / E9 row; only its registry row names it",
    "src/repro/e2e/hyperqo.py:HyperQOOptimizer.__init__": "ROADMAP item 7: HyperQO, an E8 / E9 row; only its registry row names it",
    "src/repro/e2e/autosteer.py:discover_hint_sets": "ROADMAP item 7: AutoSteer's hint-set discovery, with AutoSteerOptimizer",
    "src/repro/cardest/strings.py:AstridEstimator": "ROADMAP item 7: Astrid, a string-predicate block in E12; only its registry row names it",
    "src/repro/cardest/strings.py:StringColumn": "ROADMAP item 7: Astrid's string column",
    "src/repro/cardest/strings.py:StringPredicate": "ROADMAP item 7: Astrid's string predicate",
    "src/repro/costmodel/concurrent.py:ConcurrentCostModel": "ROADMAP item 7: GPredictor's concurrent-mix model, an E5 row",
    "src/repro/costmodel/concurrent.py:_table_overlap": "ROADMAP item 7: ConcurrentCostModel's mix feature",
    "src/repro/costmodel/embeddings.py:PlanAutoencoder": "ROADMAP item 7: Saturn's plan autoencoder, an E5 row",
    "src/repro/cardest/querydriven.py:LPCEEstimator.observe": "ROADMAP item 7: LPCE's progressive refinement; no bench feeds it executed cardinalities",
    "src/repro/cardest/querydriven.py:LPCEEstimator._refit_correction": "ROADMAP item 7: the residual model observe refits",
    "src/repro/cardest/factorjoin.py:FactorJoinEstimator._refresh": "ROADMAP item 7: an E2 refresh-after-drift row (E2 refreshes six other estimators)",
    "src/repro/cardest/hybrid.py:GLUEEstimator._refresh": "ROADMAP item 7: an E2 refresh-after-drift row",
    "src/repro/cardest/hybrid.py:UAEEstimator._refresh": "ROADMAP item 7: an E2 refresh-after-drift row",
    "src/repro/cardest/neurocard.py:NeuroCardEstimator._refresh": "ROADMAP item 7: an E2 refresh-after-drift row",
    "src/repro/pilotscope/drivers.py:CardinalityInjectionDriver.background_update": "ROADMAP item 7: E10's middleware "
    "operator list; no bench turns on the cardinality driver's background updates",
    # -- ROADMAP item 5: the soak enters the guard chain and the faulty shard backends
    "src/repro/regression/chain.py:GuardChain": "ROADMAP item 5: the guard chain on the serving path (DeploymentManager.guards)",
    "src/repro/regression/perfguard.py:PerfGuard.record_native": "ROADMAP item 5: what GuardChain.record_native forwards",
    "src/repro/faults/plan.py:FaultInjector.wrap_backend": "ROADMAP item 5: the soak's faulty shard backends (shard_fault_plan)",
    "src/repro/faults/plan.py:FaultyBackend": "ROADMAP item 5: the soak's faulty shard backends (shard_fault_plan)",
    "src/repro/optimizer/plancache.py:PlanCache.invalidate": "ROADMAP item 5: the soak's shard deployments hold a plan "
    "cache and change stage on rollback; no bench deployment with one changes stage",
    # -- the scalar path a differential test holds the batched one to
    "src/repro/cardest/querydriven.py:GLPlusEstimator._estimate": "test_batch_and_cache::test_batch_matches_sequential",
    "src/repro/cardest/querydriven.py:LPCEEstimator._estimate": "test_batch_and_cache::test_batch_matches_sequential",
    "src/repro/cardest/hybrid.py:UAEEstimator._estimate": "test_batch_and_cache::test_batch_matches_sequential",
    # -- the input it rejects, the error it handles
    "src/repro/sql/parser.py:_Parser._error": "the SQLSyntaxError malformed SQL raises; no product run parses any",
    "src/repro/faults/resilience.py:RetryPolicy.backoff_ms": "the console's wait before retrying a failed driver call; no bench driver fails",
    "src/repro/oracle/report.py:Violation.as_dict": "a violation's report row; the oracle's gates find none (test_oracle plants them)",
}

#: rule (s): a constructor no run enters means no run builds its class
_CONSTRUCTORS = {"__init__", "__post_init__"}

#: rule (s): a member of a class with one of these bases is an interface
_INTERFACES = {"Protocol", "ABC"}


@lru_cache(maxsize=None)
def _reach() -> dict:
    return json.loads(_read(ROOT / "REACH.json"))


def _stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``node``'s body, past its docstring, only raises or is ``...``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return all(
        isinstance(s, ast.Raise) or (isinstance(s, ast.Expr) and getattr(s.value, "value", None) is Ellipsis)
        for s in body
    )


def _exempt(d: Definition) -> bool:
    """A dunder, an interface's member or a stub: what no run need enter."""
    bases = {getattr(b, "id", getattr(b, "attr", None)) for b in d.owner.bases} if d.owner else set()
    return (
        (_dunder(d.node.name) and d.node.name not in _CONSTRUCTORS)
        or bool(bases & _INTERFACES)
        or _decorated(d.node, "abstractmethod") is not None
        or _stub(d.node)
    )


def _kept(key: str) -> bool:
    """Whether ``TEST_ONLY`` or ``UNENTERED`` names ``key`` or a scope enclosing it."""
    path, qualname = key.split(":")
    parts = qualname.split(".")
    scopes = [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
    return any(s in TEST_ONLY or f"{path}:{s}" in UNENTERED for s in scopes)


def _stale(row: str, functions: dict[str, bool]) -> bool:
    """Whether an ``UNENTERED`` row covers no never-entered function."""
    return all(entered for key, entered in functions.items() if key == row or key.startswith(row + "."))


def reach_violations(sources: Sources, reach: dict | None = None) -> list[str]:
    """Every way the functions under ``src/repro`` and ``reach`` (by default
    ``REACH.json``) disagree, one line each."""
    reach = _reach() if reach is None else reach
    functions = reach["functions"]
    defs = {d.key: d for path in _files("src") for d in definitions(path, sources.parse(path))}
    return (
        [f"{key} is missing from REACH.json" for key in defs if key not in functions]
        + [f"{key} is in REACH.json but defined nowhere" for key in functions if key not in defs]
        + [
            f"{key} is entered by no product run"
            for key, entered in functions.items()
            if not entered and key in defs and not _exempt(defs[key]) and not _kept(key)
        ]
        + [f"UNENTERED row {key} is stale: what it names is entered or gone" for key in UNENTERED
           if _stale(key, functions)]
        + [f"{name} defaults to None, which no product run gives it" for name, given in reach["none_params"].items()
           if not given]
    )


def test_every_function_is_entered_or_kept():
    found = reach_violations(Sources())
    assert not found, (
        f"{found} -- run `python -m tests.reach` after adding, renaming or removing a function; "
        "then give a function no product run enters a product caller, delete it, or give it an "
        "UNENTERED row naming its reason; a None default no run gives becomes required"
    )


# -- every cited rule exists ---------------------------------------------------------------

#: the rules that stay functions, by letter
RULES = {
    "a": unused_exports,
    "b": unreferenced_definitions,
    "c": test_example_imports,
    "d": single_valued_knobs,
    "e": latency_records,
    "f": bench_contract_violations,
    "g": single_writer_violations,
    "h": lru_entries_violations,
    "k": subset_enumeration_violations,
    "m": placeholder_violations,
    "n": gather_violations,
    "p": unused_imports,
    "q": probe_violations,
    "s": reach_violations,
}

CITATION = re.compile(r"\brule\s+\(([a-z])\)", re.IGNORECASE)


def unresolved_citations(sources: Sources) -> list[str]:
    """Every "rule (x)" in DESIGN.md or under ``src/`` that names neither a
    rule function nor an ``OWNED`` row's tag."""
    known = RULES.keys() | {row.rule for row in OWNED.values()}
    return [
        f"{_where(path)} cites rule ({letter})"
        for path in (ROOT / "DESIGN.md", *_files("src"))
        for letter in CITATION.findall(sources.text(path))
        if letter not in known
    ]


def test_every_cited_rule_exists():
    assert not unresolved_citations(Sources())
    assert CITATION.search(_read(ROOT / "DESIGN.md"))


def census(sources: Sources, rule: str) -> list[str]:
    """Everything rule ``rule`` finds: its ``OWNED`` rows, then its function's."""
    return owned_violations(sources, rule) + (RULES[rule](sources) if rule in RULES else [])


#: the case each letter with ``OWNED`` rows fails under
CASES = {
    "i": "test_feedback_only_records",
    "j": "test_members_are_read_after_their_owed_fits",
    "k": "test_one_subset_enumeration",
    "l": "test_one_exact_counter",
    "m": "test_one_template_identity",
    "n": "test_one_training_plan",
    "o": "test_triggers_read_a_sorted_window",
    "r": "test_fabric_requests_ask_once",
}


def _census_case(rule: str):
    def case():
        found = census(Sources(), rule)
        reasons = {row.reason for row in OWNED.values() if row.rule == rule}
        assert not found, f"{found} -- {'; '.join(sorted(reasons))}"

    return case


for _rule, _name in CASES.items():
    globals()[_name] = _census_case(_rule)


def test_owned_rows_are_checked():
    assert {row.rule for row in OWNED.values()} <= CASES.keys()
    stale = [o for row in OWNED.values() for o in row.owners if not (ROOT / o).is_file()]
    assert not stale, f"OWNED owners that are no file: {stale}"
    assert all(set(_finds(n, row.match)) <= VERBS.keys() for n, row in OWNED.items())


def test_slotted_records_round_trip(stats_workload, stats_optimizer, stats_simulator):
    """One instance of each record (g) slots: it has no ``__dict__`` and
    still pickles, deep-copies, ``replace``-s and compares by value."""
    from repro.core.interfaces import Decision
    from repro.pilotscope.console import QueryLogEntry
    from repro.serve.runtime import Rejected, Request, Served

    query = stats_workload[0]
    request = Request(session_id=1, seq=2, global_seq=3, arrival_ms=4.5, query=query)
    executed = stats_simulator.execute(stats_optimizer.plan(query))
    served = Served(request, "live", "native", 1.25, 0.5, 7, estimator_tag="t", cache_hits=1)
    records = [
        request,
        served,
        Rejected(request, "quota", 0.0),
        Decision("canary", "bao", 2.0, 7, query=query, native_latency_ms=3.0),
        executed,
        QueryLogEntry(query.to_sql(), "native", executed.cardinality, executed.latency_ms),
    ]
    mutable = {"ExperienceRecord"}
    assert {type(r).__name__ for r in records} == (set(RECORDS) - mutable) | REQUEST_RECORDS
    for record in records:
        name = type(record).__name__
        assert not hasattr(record, "__dict__"), name
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record, name
        fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert dataclasses.replace(record, **fields) == record, name
        for field, value in fields.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, value)
    slower = dataclasses.replace(served, latency_ms=9.0)
    assert slower.latency_ms == 9.0 and slower != served and served.latency_ms == 1.25


# -- the rules bite: planted violations -------------------------------------------------


def _patched(relative: str | Path, old: str, new: str, root: Path = SRC) -> Sources:
    """``Sources`` with ``old`` replaced by ``new`` in ``root / relative``
    (an absolute ``relative`` is the file itself)."""
    path = root / relative
    text = _read(path)
    assert text.count(old) == 1, f"{relative}: seed anchor {old!r} not found exactly once"
    return Sources({path: text.replace(old, new)})


#: a use of a name as each match kind, appended to a file
PLANTS = {
    "word": "# {}\n",
    "identifier": "_ = {}\n",
    "call": "{}()\n",
    "def": "def {}():\n    pass\n",
}


@pytest.mark.parametrize(
    "name, kind", [(n, kind) for n, row in OWNED.items() for kind in _finds(n, row.match)]
)
def test_seeded_owned_name_is_caught_outside_its_owners(name, kind):
    row = OWNED[name]
    plant = PLANTS[kind].format(name)
    outside = next(p for p in _files(*row.trees) if _where(p) not in row.owners)
    found = owned_violations(Sources({outside: _read(outside) + plant}))
    assert [re.sub(r":\d+ ", " ", f) for f in found] == [f"{_where(outside)} {_finds(name, row.match)[kind]}"]
    for owner in row.owners:
        assert owned_violations(Sources({ROOT / owner: _read(ROOT / owner) + plant})) == []


def test_seeded_citation_of_no_rule_is_caught():
    sources = _patched("sql/joingraph.py", "rule (k))", "rule (z))")
    assert unresolved_citations(sources) == ["src/repro/sql/joingraph.py cites rule (z)"]


def test_seeded_reexport_without_an_importer_is_caught():
    sources = _patched(
        "ml/__init__.py",
        "__all__ = [\n",
        'from repro.ml.nn import Adam\n\n__all__ = [\n    "Adam",\n',
    )
    assert unused_exports(sources, "repro.ml") == ["Adam"]


def test_seeded_unused_public_definition_is_caught():
    sources = _patched(
        "cardest/theory.py",
        "\ndef interval_coverage(",
        "\ndef seeded_unused_helper():\n    return None\n\n\ndef interval_coverage(",
    )
    assert unreferenced_definitions(sources) == [
        "src/repro/cardest/theory.py: seeded_unused_helper is unreferenced"
    ]


_SETCONV = SRC / "ml" / "setconv.py"
_FIT_TAIL = "        seed: int = 0,\n    ) -> list[float]:"


def _planted(parameter: str, **callers: str) -> Sources:
    """``SetConvNet.fit`` with ``parameter`` planted, and each caller file
    (a path relative to the repo root) with a line appended."""
    text = _read(_SETCONV)
    assert text.count(_FIT_TAIL) == 1
    planted = {_SETCONV: text.replace(_FIT_TAIL, f"        seed: int = 0,\n        {parameter},\n    ) -> list[float]:")}
    for relative, line in callers.items():
        planted[ROOT / relative] = _read(ROOT / relative) + f"\n{line}\n"
    return Sources(planted)


#: what rule (d) reports for the planted ``SetConvNet.fit(verbose=False)``
_VERBOSE = "src/repro/ml/setconv.py: SetConvNet.fit.verbose has one product value False"


def test_seeded_keyword_nothing_passes_is_caught():
    assert single_valued_knobs(_planted("verbose: bool = False")) == [_VERBOSE]


@pytest.mark.parametrize(
    "caller, line, caught",
    [
        ("tests/test_ml_models.py", "_FIT = SetConvNet.fit(None, [], [], verbose=True)", True),
        ("perf/workloads.py", "_FIT = SetConvNet.fit(None, [], [], verbose=True)", False),
        ("perf/workloads.py", "# verbose=True: a word in a comment sets nothing", True),
        ("benchmarks/bench_e3_design_space.py", 'def _fit():\n    """fit(verbose=True)"""', True),
        ("benchmarks/contract.py", "_FIT = SetConvNet.fit(None, [], [], verbose=True)", False),
        # an args dict outside a method-table row calls nothing
        ("src/repro/core/registry.py", '_ARGS = {"verbose": True}', True),
    ],
    ids=[
        "a-test-sets-it",
        "perf-sets-it",
        "a-comment-names-it",
        "a-docstring-names-it",
        "a-bench-keyword-sets-it",
        "a-registry-key-sets-it",
    ],
)
def test_seeded_keyword_only_a_test_sets_is_a_constant(caller, line, caught):
    found = single_valued_knobs(_planted("verbose: bool = False", **{caller: line}))
    assert found == ([_VERBOSE] if caught else [])


def test_seeded_required_keyword_only_argument_is_no_knob():
    assert single_valued_knobs(_planted("verbose: bool")) == []


def test_seeded_allow_list_entry_product_code_names_is_stale():
    bench = "benchmarks/contract.py"
    sources = _planted("verbose: bool", **{bench: "_MEMO = CardinalityExecutor(None, cache_capacity=1024)"})
    assert single_valued_knobs(sources) == [
        "CardinalityExecutor.cache_capacity is allow-listed but has no one product value"
    ]


def test_seeded_knob_an_unrelated_call_names_is_caught():
    """The name-based rule counted a parameter as set when any product file
    passed that name to anything; resolved to its callee, it is not."""
    sources = _planted("max_depth: int = 5")
    unrelated = [
        _where(p)
        for p in _files(*CODE_TREES)
        if p != _SETCONV and "max_depth" in sources.facts(p).keywords
    ]
    assert unrelated  # what the name-based rule read as "set"
    assert single_valued_knobs(sources) == [
        "src/repro/ml/setconv.py: SetConvNet.fit.max_depth has one product value 5"
    ]


def test_seeded_super_init_forward_is_a_call():
    """Nothing calls ``_SteeringDriverBase`` by name; its subclasses'
    ``super().__init__`` are its calls, so two literal forwards make its
    ``seed`` a constant."""
    drivers = SRC / "pilotscope" / "drivers.py"
    text = _read(drivers)
    assert text.count("super().__init__(seed=seed)") == 2
    sources = Sources({drivers: text.replace("super().__init__(seed=seed)", "super().__init__(seed=3)")})
    assert single_valued_knobs(sources) == [
        "src/repro/pilotscope/drivers.py: _SteeringDriverBase.seed has one product value 3"
    ]


def test_seeded_none_only_readme_gives_is_kept():
    """README's python blocks are product calls: a ``None`` default that
    only README leaves ``None`` is taken, so it stays a default."""
    theory = SRC / "cardest" / "theory.py"
    planted = {theory: _read(theory).replace(_THEORY_END, _PROBE + "_SEEDED_RUN = _seeded_probe(None, executor=len)\n\n" + _THEORY_END)}
    assert single_valued_knobs(Sources(planted)) == [_FILLED]
    block = "\n```python\nfrom repro.cardest.theory import _seeded_probe\n_seeded_probe(None)\n```\n"
    planted[README] = _read(README) + block
    assert single_valued_knobs(Sources(planted)) == []


def test_seeded_registry_row_is_a_reference_to_its_class_only():
    """A ``"module:Class"`` row builds the class; what calls its methods is
    the code that holds the instance, which the row is not."""
    planted = "\nclass SeededMethod:\n    def diagnose(self):\n        return None\n"
    theory = SRC / "cardest" / "theory.py"
    anchor = "_REGISTRY: list[MethodInfo] = [\n"
    assert _read(REGISTRY).count(anchor) == 1
    row = '    MethodInfo("cardinality", "Seeded", "Seeded", "-", "-", "repro.cardest.theory:SeededMethod"),\n'
    without_row = Sources({theory: _read(theory) + planted})
    assert unreferenced_definitions(without_row) == [
        "src/repro/cardest/theory.py: SeededMethod is unreferenced",
        "src/repro/cardest/theory.py: SeededMethod.diagnose is unreferenced",
    ]
    with_row = Sources(
        {
            theory: _read(theory) + planted,
            REGISTRY: _read(REGISTRY).replace(anchor, anchor + row),
        }
    )
    assert unreferenced_definitions(with_row) == [
        "src/repro/cardest/theory.py: SeededMethod.diagnose is unreferenced"
    ]


def test_seeded_method_sharing_a_live_name_is_caught():
    """The name-based rule counted a method as used when any product file
    named it; ``TelemetryBus.snapshot`` is live, the re-planted
    ``TelemetryAggregator.snapshot`` beside it is not."""
    sources = _patched(
        "serve/fabric/aggregate.py",
        "    def export_json(",
        "    def snapshot(self) -> dict:\n        return json.loads(self.export_json())\n\n"
        "    def export_json(",
    )
    assert "snapshot" in sources.references(*CODE_TREES)  # what the name-based rule read as used
    assert unreferenced_definitions(sources) == [
        "src/repro/serve/fabric/aggregate.py: TelemetryAggregator.snapshot is unreferenced"
    ]


def test_seeded_in_band_counter_is_caught():
    sources = _patched(
        "core/framework.py",
        "        self.feedbacks = 0\n",
        "        self.feedbacks = 0\n        self._since_retrain = 0\n",
    )
    assert census(sources, "i") == ["src/repro/core/framework.py names _since_retrain"]


def test_seeded_relabelled_record_is_caught():
    sources = _patched(
        "pilotscope/interactor.py",
        "\nclass PilotSession(abc.ABC):",
        "\nfrom dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
        "class ExecutionOutcome:\n    cardinality: int\n    latency_ms: float\n"
        "    plan: Plan\n\n\nclass PilotSession(abc.ABC):",
    )
    assert [n for n in latency_records(sources) if n not in RECORDS] == ["ExecutionOutcome"]


#: rule (b)'s plants go above this line of ``cardest/theory.py``, with a
#: class whose method only the plant may reach
_THEORY_END = "\ndef interval_coverage("
_SEEDED = "\nclass _Seeded:\n    def seeded_step(self):\n        return 1\n\n\n"
_THEORY = "src/repro/cardest/theory.py"
#: a class built by its classmethod's cls(...), its method read off the result
_SEEDED_CORPUS = (
    "\nclass _SeededCorpus:\n    @classmethod\n    def from_steps(cls):\n        return cls()\n\n"
    "    def seeded_step(self):\n        return 2\n\n\n"
    "def _seeded_call():\n    return _SeededCorpus.from_steps().seeded_step()\n\n"
)
#: rule (d)'s forwarding plants: a two-hop chain restating its default,
#: and a self-recursive forward
_CHAIN = (
    "\ndef _seeded_outer(db, budget=7):\n    return _seeded_middle(db, budget=budget)\n\n\n"
    "def _seeded_middle(db, budget=7):\n    return _seeded_inner(db, budget=budget)\n\n\n"
    "def _seeded_inner(db, budget=7):\n    return budget\n\n\n"
)
_COUNTDOWN = "\ndef _seeded_countdown(n, step=1):\n    return n if n <= 0 else _seeded_countdown(n - step, step=step)\n\n\n"
#: rule (d)'s ``None`` plants: a probe whose ``executor`` defaults to None,
#: reached directly or through a forward; and p7's validator shape, whose
#: own two values came before the forward that brings its ``None``
_PROBE = "\ndef _seeded_probe(db, executor=None):\n    return executor\n\n\n"
_FILLED = "src/repro/cardest/theory.py: _seeded_probe.executor defaults to None, which no product call gives it"
_VALIDATE = (
    "\ndef _seeded_validate(db, baseline=None):\n    return _seeded_verify(db, baseline=baseline)\n\n\n"
    "def _seeded_verify(db, baseline=None):\n    return baseline\n\n\n"
)


#: the hand-written plants: ``case: (rule, root, rows)``, a row ``(relative
#: to root, old, new, caught)`` -- or ``(old, new, caught)`` when ``root``
#: is the one file the rule reads -- with what ``census`` must report,
#: line numbers dropped
SEEDED = {
    "test_seeded_unreached_method_is_caught": ("b", SRC, [
        # a name only a local variable bears (oracle/equivalence.py's labelled)
        ("lifecycle/experience.py", "    def snapshot_id(self) -> str:",
         "    def labelled(self):\n        return []\n\n    def snapshot_id(self) -> str:",
         ["src/repro/lifecycle/experience.py: ExperienceStore.labelled is unreferenced"]),
        # a registry row builds GL+, and nothing calls this method of it
        ("cardest/querydriven.py",
         "    def _estimate(self, query: Query) -> float:\n        if self._global is None",
         "    def n_local_models(self):\n        return len(self._local)\n\n"
         "    def _estimate(self, query: Query) -> float:\n        if self._global is None",
         ["src/repro/cardest/querydriven.py: GLPlusEstimator.n_local_models is unreferenced"]),
        # nothing at all, or a keyword argument of that name
        ("cardest/theory.py", _THEORY_END, _SEEDED + _THEORY_END,
         [f"{_THEORY}: _Seeded.seeded_step is unreferenced"]),
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_call(f):\n    return f(seeded_step=1)\n\n" + _THEORY_END,
         [f"{_THEORY}: _Seeded.seeded_step is unreferenced"]),
        # the local of one scope is not another scope's, same-named
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "class _Other:\n    def seeded_step(self):\n        return 2\n\n\n"
         "def _seeded_calls():\n    def one():\n        driver = _Seeded()\n"
         "        return driver.seeded_step()\n\n    def two():\n        driver = _Other()\n"
         "        return driver\n\n    return one, two\n\n" + _THEORY_END,
         [f"{_THEORY}: _Other.seeded_step is unreferenced"]),
        # an override its base calls through self
        ("cardest/theory.py", _THEORY_END,
         "\nclass _SeededBase:\n    def _run(self):\n        return self.seeded_step()\n\n\n"
         + _SEEDED.replace("_Seeded:", "_Seeded(_SeededBase):") + _THEORY_END, []),
        # a local a constructor assigned
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_call():\n    seeded = _Seeded()\n    return seeded.seeded_step()\n\n"
         + _THEORY_END, []),
        # an attribute a constructor assigned on self
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "class _Owner:\n    def __init__(self):\n        self.inner = _Seeded()\n\n"
         "    def _run(self):\n        return self.inner.seeded_step()\n\n" + _THEORY_END, []),
        # receivers the rule cannot type pool: a parameter, a hasattr string
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_call(x):\n    return x.seeded_step()\n\n" + _THEORY_END, []),
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_probe(x):\n    return hasattr(x, \"seeded_step\")\n\n" + _THEORY_END, []),
        # a call's result is typed by what the callee returns: the merged
        # bus is a TelemetryBus, so this snapshot reaches only the bus's
        ("serve/fabric/aggregate.py", "    def export_json(",
         "    def snapshot(self) -> dict:\n        return self.merged().snapshot()\n\n    def export_json(",
         ["src/repro/serve/fabric/aggregate.py: TelemetryAggregator.snapshot is unreferenced"]),
        # ... through cls(...) in a classmethod (PlanTreeCorpus.from_trees(trees).resample(idx)),
        # which reaches that class's method and not a same-named one
        ("cardest/theory.py", _THEORY_END, _SEEDED_CORPUS + _THEORY_END, []),
        ("cardest/theory.py", _THEORY_END, _SEEDED + _SEEDED_CORPUS + _THEORY_END,
         [f"{_THEORY}: _Seeded.seeded_step is unreferenced"]),
        # ... and a function's typed local; a returned parameter pools
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_make():\n    made = _Seeded()\n    return made\n\n\n"
         "def _seeded_call():\n    return _seeded_make().seeded_step()\n\n" + _THEORY_END, []),
        ("cardest/theory.py", _THEORY_END,
         _SEEDED + "def _seeded_same(x):\n    return x\n\n\n"
         "def _seeded_call(y):\n    return _seeded_same(y).seeded_step()\n\n" + _THEORY_END, []),
    ]),
    "test_seeded_one_valued_knob_is_caught": ("d", ROOT, [
        # the lone product caller passes one literal
        ("src/repro/serve/scenarios.py", "OnlineAuditor(db, every=audit_every,",
         "OnlineAuditor(db, every=8,",
         ["src/repro/oracle/audit.py: OnlineAuditor.every has one product value 8"]),
        # ... or passes it in a constant-key dict display, which is read
        ("src/repro/serve/scenarios.py", "OnlineAuditor(db, every=audit_every,",
         "OnlineAuditor(db, **{\"every\": 8},",
         ["src/repro/oracle/audit.py: OnlineAuditor.every has one product value 8"]),
        # a method-table row's one literal
        ("src/repro/core/registry.py", '"crn", {"epochs": _EPOCHS_NN', '"crn", {"epochs": 30',
         ["src/repro/cardest/querydriven.py: CRNEstimator.epochs has one product value 30"]),
        # a per-budget pair is no one literal, even of equal values
        ("src/repro/core/registry.py", '"crn", {"epochs": _EPOCHS_NN',
         '"crn", {"epochs": {"fast": 30, "full": 30}', []),
        # perf's positional 7 is a second value: the allow-list entry is stale
        ("perf/workloads.py", "default_tenant_specs(6)", "default_tenant_specs(7)",
         ["default_tenant_specs.n_tenants is allow-listed but has no one product value"]),
        # forwarded keywords hide the callee's knobs: the spread itself is
        # caught, and the None its one caller may no longer pass
        ("src/repro/serve/scenarios.py", "OnlineAuditor(db, every=audit_every,",
         "OnlineAuditor(db, **audit_kwargs,",
         ["src/repro/serve/scenarios.py spreads **audit_kwargs into OnlineAuditor",
          "src/repro/oracle/audit.py: OnlineAuditor.bound_guard defaults to None, which no product call gives it"]),
        (_THEORY, _THEORY_END,
         "\ndef _seeded_build(db, options: dict):\n    return NaruEstimator(db, **options)\n\n" + _THEORY_END,
         [f"{_THEORY} spreads **options into NaruEstimator"]),
        # a dict display's forwarded value is the parameter's values; a
        # callee without knobs (TelemetryBus.event) may take a spread
        ("src/repro/serve/scenarios.py", "OnlineAuditor(db, every=audit_every,",
         "OnlineAuditor(db, **{\"every\": audit_every},", []),
        (_THEORY, _THEORY_END,
         "\ndef _seeded_event(bus, **fields):\n    bus.event(\"seeded\", **fields)\n\n" + _THEORY_END, []),
        # a default restated along a two-hop forwarding chain: every link has one value
        (_THEORY, _THEORY_END, _CHAIN + "_SEEDED_RUN = _seeded_outer(None)\n\n" + _THEORY_END,
         [f"{_THEORY}: _seeded_{link}.budget has one product value 7" for link in ("inner", "middle", "outer")]),
        # ... not when the chain's source has two product values
        (_THEORY, _THEORY_END,
         _CHAIN + "_SEEDED_RUN = _seeded_outer(None), _seeded_outer(None, budget=5)\n\n" + _THEORY_END, []),
        # a self-recursive forward is a cycle: it adds nothing, so the
        # callers' values decide
        (_THEORY, _THEORY_END,
         _COUNTDOWN + "_SEEDED_RUN = _seeded_countdown(3), _seeded_countdown(3, step=2)\n\n" + _THEORY_END, []),
        (_THEORY, _THEORY_END, _COUNTDOWN + "_SEEDED_RUN = _seeded_countdown(3)\n\n" + _THEORY_END,
         [f"{_THEORY}: _seeded_countdown.step has one product value 1"]),
    ]),
    "test_seeded_none_default_no_product_call_takes_is_caught": ("d", ROOT, [
        # every product call fills it
        (_THEORY, _THEORY_END,
         _PROBE + "_SEEDED_RUN = _seeded_probe(None, executor=len), _seeded_probe(None, executor=abs)\n\n"
         + _THEORY_END,
         [_FILLED]),
        # ... one passing None is enough, by omission or literally
        (_THEORY, _THEORY_END,
         _PROBE + "_SEEDED_RUN = _seeded_probe(None, executor=len), _seeded_probe(None)\n\n" + _THEORY_END, []),
        (_THEORY, _THEORY_END,
         _PROBE + "_SEEDED_RUN = _seeded_probe(None, executor=len), _seeded_probe(None, None)\n\n" + _THEORY_END, []),
        # reached only through a forward, whose own caller fills it
        (_THEORY, _THEORY_END,
         _PROBE + "def _seeded_wrap(db, executor):\n    return _seeded_probe(db, executor=executor)\n\n\n"
         "_SEEDED_RUN = _seeded_wrap(None, len), _seeded_wrap(None, abs)\n\n" + _THEORY_END,
         [_FILLED]),
        # an omitted forwarded parameter brings its None after two direct values
        (_THEORY, _THEORY_END,
         _VALIDATE + "_SEEDED_RUN = _seeded_verify(None, baseline=len), _seeded_verify(None, baseline=abs), "
         "_seeded_validate(None), _seeded_validate(None, baseline=len)\n\n" + _THEORY_END, []),
        # README's guard is the one product call leaving BoundGuard.telemetry None
        ("README.md", "breaker=CircuitBreaker(), tolerance=2.0)",
         "breaker=CircuitBreaker(), tolerance=2.0, telemetry=bus)",
         ["src/repro/faults/boundguard.py: BoundGuard.telemetry defaults to None, which no product call gives it"]),
    ]),
    "test_seeded_protocol_probe_is_caught": ("q", ROOT, [
        # a literal-name probe with its default, or without one
        (_THEORY, _THEORY_END,
         "\ndef _seeded_version(x):\n    return getattr(x, \"estimates_version\", 0)\n\n" + _THEORY_END,
         [f"{_THEORY} probes getattr('estimates_version')"]),
        ("benchmarks/bench_p8_bounds.py", "if isinstance(r, Served)", "if hasattr(r, \"latency_ms\")",
         ["benchmarks/bench_p8_bounds.py probes hasattr('latency_ms')"]),
        # a forwarding proxy (its getattr by a variable name is no probe)
        ("src/repro/faults/plan.py", "    def cache_stats(self):\n",
         "    def __getattr__(self, attr):\n        return getattr(self.inner, attr)\n\n"
         "    def cache_stats(self):\n",
         ["src/repro/faults/plan.py defines __getattr__"]),
        # a reflective walk by a variable name, and a dunder
        (_THEORY, _THEORY_END,
         "\ndef _seeded_read(x, name):\n    return getattr(x, name)\n\n" + _THEORY_END, []),
        (_THEORY, _THEORY_END,
         "\ndef _seeded_hook(cls):\n    return hasattr(cls, \"__post_init__\")\n\n" + _THEORY_END, []),
    ]),
    "test_seeded_unused_import_is_caught": ("p", ROOT, [
        ("src/repro/cardest/strings.py", "import zlib\n", "import math\nimport zlib\n",
         ["src/repro/cardest/strings.py imports math, unused"]),
        ("tests/test_fabric.py", "from repro.faults import BreakerState,",
         "from repro.faults.plan import FaultSpec\nfrom repro.faults import BreakerState,",
         ["tests/test_fabric.py imports FaultSpec, unused"]),
        # a function's import is its own; a package __init__ re-exports (rule (a))
        ("src/repro/cardest/strings.py", "def generate_names(n: int, seed: int = 0) -> list[str]:\n",
         "def generate_names(n: int, seed: int = 0) -> list[str]:\n    import math\n", []),
        ("src/repro/ml/__init__.py", "from repro.ml.cluster import KMeans\n",
         "from repro.ml.cluster import KMeans\nfrom repro.ml.nn import Adam\n", []),
    ]),
    "test_seeded_bench_outside_the_contract_is_caught": ("f", BENCH, [
        ("bench_e7_bao.py", "\nexport = table_export(measure)\n", "\n",
         ["bench_e7_bao.py defines no top-level export"]),
        ("bench_e7_bao.py", "\ndef measure(seed=0):", "\ndef run(seed=0):",
         ["bench_e7_bao.py defines no top-level measure"]),
        ("bench_p2_serving.py", "def test_p2_steady_state_throughput():",
         "def test_p2_steady_state_throughput(benchmark):",
         ["bench_p2_serving.py: test_p2_steady_state_throughput takes the benchmark fixture"]),
        ("bench_e7_bao.py", "BaoOptimizer(optimizer, seed=seed)", "BaoOptimizer(optimizer, seed=0)",
         ["bench_e7_bao.py: measure(seed) pins seed=0"]),
        ("bench_p10_transfer.py", "_corpus(db, 30, seed=seed + 5)", "_corpus(db, 30, seed=5)",
         ["bench_p10_transfer.py: transfer_pass(seed) pins seed=5"]),
        ("bench_p2_serving.py", "\nN_SESSIONS = 8\n",
         '\nN_SESSIONS = int(os.environ.get("N_SESSIONS", 8))\n',
         ["bench_p2_serving.py: reads os.environ"]),
        ("bench_p3_chaos.py", "\nSCALE, N_QUERIES = 0.3, 160\n",
         '\n_PROFILES = {"quick": (0.3, 160)}\nSCALE, N_QUERIES = _PROFILES["quick"]\n',
         ["bench_p3_chaos.py: defines _PROFILES"]),
        ("bench_p8_bounds.py", "def drift_pass(seed: int = 0) -> dict:",
         "def drift_pass(seed: int = 0, profile: str | None = None) -> dict:",
         ["bench_p8_bounds.py: drift_pass takes a profile"]),
    ]),
    "test_seeded_second_writer_is_caught": ("g", SRC, [
        ("serve/runtime.py", "@dataclass(frozen=True, slots=True)\nclass Served:",
         "@dataclass(frozen=True)\nclass Served:", ["Served is not slots=True"]),
        ("serve/telemetry.py", "import json\n", "import json\nimport threading\n",
         ["src/repro/serve/telemetry.py imports threading"]),
        ("faults/resilience.py", "import enum\n", "import enum\nfrom threading import Lock\n",
         ["src/repro/faults/resilience.py imports threading"]),
        ("serve/runtime.py", "@slot_init\n@dataclass(frozen=True, slots=True)\nclass Served:",
         "@dataclass(frozen=True, slots=True)\nclass Served:", ["Served is not built by @slot_init"]),
        ("core/interfaces.py", "@slot_init\n@dataclass(frozen=True, slots=True)\nclass Decision:",
         "@dataclass(frozen=True, slots=True)\n@slot_init\nclass Decision:",
         ["Decision is not built by @slot_init"]),
    ]),
    "test_seeded_reach_into_an_lru_is_caught": ("h", SRC, [
        # a subclass reading its base's entries
        ("optimizer/cardcache.py", "return super().peek(_key(tag, query))",
         "return self._entries.get(_key(tag, query))",
         ["src/repro/optimizer/cardcache.py touches _entries"]),
        # an observer reaching into a cache
        ("lifecycle/scheduler.py",
         "estimate = coster.cache.peek(coster.cache_tag(), decision.query)",
         "estimate = coster.cache._entries.get(coster.cache_tag())",
         ["src/repro/lifecycle/scheduler.py touches _entries"]),
    ]),
    "test_seeded_read_of_unforced_members_is_caught": ("j", ROOT, [
        # a second model scoring with the raw member list
        ("src/repro/e2e/hyperqo.py", "        self.optimizer = optimizer\n",
         "        self.optimizer = optimizer\n"
         "        self.heads = len(self.risk_model.inner._members)\n",
         ["src/repro/e2e/hyperqo.py names _members"]),
        # a test comparing weights a retrain has not fitted yet
        ("tests/test_framework_instances.py",
         'risk_model.members() if hasattr(risk_model, "members")',
         'risk_model._members if hasattr(risk_model, "_members")',
         ["tests/test_framework_instances.py names _members"]),
    ]),
    "test_seeded_second_subset_enumeration_is_caught": ("k", SRC, [
        # the injection surface enumerating subsets on its own again
        ("pilotscope/postgres_sim.py", "        return query.connected_subqueries()\n",
         "        from itertools import combinations\n"
         "        return [query.subquery(c) for r in range(1, query.n_tables + 1)\n"
         "                for c in combinations(query.tables, r)]\n",
         ["src/repro/pilotscope/postgres_sim.py enumerates subsets"]),
        # a second partition loop beside the DP's
        ("e2e/exploration.py",
         "            for left_set, right_set, conditions in graph.partitions[subset]:\n",
         "            for left_combo in combinations(sorted(subset)[1:], len(subset) - 1):\n"
         "                pass\n"
         "            for left_set, right_set, conditions in graph.partitions[subset]:\n",
         ["src/repro/e2e/exploration.py enumerates subsets"]),
        # a breadth-first walk over the query's adjacency
        ("engine/executor.py", "        if not join_graph(query).connected:\n",
         "        if len(query.join_adjacency()) > 1 and not join_graph(query).connected:\n",
         ["src/repro/engine/executor.py walks the join graph"]),
    ]),
    "test_seeded_second_counter_is_caught": ("l", SRC, [
        # the tree strategy back beside the one counter
        ("engine/executor.py", "    def _materialize(\n",
         "    def _tree_count(self, query):\n"
         "        return self._count(query)\n\n"
         "    def _materialize(\n",
         ["src/repro/engine/executor.py defines _tree_count"]),
        # a second dispatch on the graph's shape
        ("sql/joingraph.py", "def join_graph(query: Query) -> JoinGraph:\n",
         "def _join_graph_is_tree(query: Query) -> bool:\n"
         "    return len(query.joins) == query.n_tables - 1\n\n\n"
         "def join_graph(query: Query) -> JoinGraph:\n",
         ["src/repro/sql/joingraph.py defines _join_graph_is_tree"]),
    ]),
    "test_seeded_text_template_is_caught": ("m", SRC, [
        # the text renderer back beside the tuple key
        ("sql/query.py", "def query_hash(",
         "def predicate_template(pred):\n"
         "    return f\"{pred.column} {pred.op.value} ?\"\n\n\n"
         "def query_hash(",
         ["src/repro/sql/query.py names predicate_template",
          "src/repro/sql/query.py renders a placeholder"]),
        # a plan-cache key rendered as text again
        ("optimizer/plancache.py", "        return (query.template_key, tag, data_version)\n",
         "        marks = \", \".join(\"?\" for _ in query.predicates)\n"
         "        return (f\"{query.tables} WHERE {marks}\", tag, data_version)\n",
         ["src/repro/optimizer/plancache.py joins placeholders"]),
    ]),
    "test_seeded_second_training_plan_is_caught": ("n", SRC, [
        # an epoch's batches built per epoch again
        ("costmodel/multitask.py", "        for order, batches in corpus.plan(orders, 32):\n",
         "        for order in orders:\n"
         "            batches = corpus.batches(order, 32)\n",
         ["src/repro/costmodel/multitask.py batches per epoch"]),
        # layer 1 gathered from a per-batch features block
        ("e2e/risk_models.py", "                scores = self.net.forward(batch)[:, 0]\n",
         "                concat = batch.features[batch.idx3]\n"
         "                scores = self.net.forward(batch)[:, 0]\n",
         ["src/repro/e2e/risk_models.py gathers at idx3"]),
        # a batch generator of its own
        ("costmodel/multitask.py", "    # -- fine-tuning ---",
         "    def batches(self, order):\n"
         "        yield order\n\n"
         "    # -- fine-tuning ---",
         ["src/repro/costmodel/multitask.py defines batches"]),
        # the owner builds and gathers: not a violation
        ("ml/treeconv.py", "        first, *rest = self.conv_layers\n",
         "        rows = batch.layer1.take(batch.idx3[:, 0] - 1, axis=0)\n"
         "        first, *rest = self.conv_layers\n",
         []),
    ]),
    "test_seeded_trigger_sorting_its_window_is_caught": ("o", SRC / "lifecycle" / "scheduler.py", [
        # the window sorted again on every check
        ("        s = self._sorted\n        if not s:\n",
         "        if not self._errors:\n            return 1.0\n"
         "        return float(np.quantile(np.array(self._errors), self.quantile))\n"
         "        s = self._sorted\n        if not s:\n",
         ["src/repro/lifecycle/scheduler.py calls quantile"]),
        # a percentile trigger of its own
        ("class DriftTrigger:\n",
         "class P90Trigger:\n"
         "    def current(self):\n"
         "        from numpy import percentile\n"
         "        return percentile(self._errors, 90)\n\n\n"
         "class DriftTrigger:\n",
         ["src/repro/lifecycle/scheduler.py calls percentile"]),
    ]),
    "test_seeded_per_request_lookup_in_the_fabric_is_caught": ("r", ROOT / FABRIC_LOOP, [
        # a tenant's response time filed by name again
        ("                        response.record(outcome.wait_ms + outcome.latency_ms)\n",
         "                        bus.observe(\n"
         "                            f\"tenant.{tenant}.response_ms\",\n"
         "                            outcome.wait_ms + outcome.latency_ms,\n"
         "                        )\n",
         [f"{FABRIC_LOOP} calls observe"]),
        # a lazy per-shard view the router indexes again
        ("class ServingFabric:\n",
         "class _ShardView:\n"
         "    def __getitem__(self, i):\n"
         "        return self.peeks[i](self.at_ms)\n\n\n"
         "class ServingFabric:\n",
         [f"{FABRIC_LOOP} defines __getitem__"]),
        # naming observe in a comment, and indexing the shard list, ask nothing
        ("                    outcome = shards[shard_id].submit(req, in_flight=in_flight)\n",
         "                    # not bus.observe: the row's handle is bound once\n"
         "                    outcome = shards[shard_id].submit(req, in_flight=in_flight)\n",
         []),
    ]),
}


def _seeded_case(rule: str, root: Path, rows: list[tuple]):
    """One parametrized case over ``rows``: each plants its text in
    ``root``'s file and compares what ``census`` finds to its ``caught``
    (the ids are pytest's own, from each row's strings)."""

    def case(path, old, new, caught):
        found = census(_patched(path, old, new), rule)
        assert [re.sub(r":\d+(?=[: ])", "", f) for f in found] == caught

    params = [
        pytest.param(
            root.joinpath(*where), old, new, caught, id="-".join([*where, old, new, f"caught{i}"])
        )
        for i, (*where, old, new, caught) in enumerate(rows)
    ]
    return pytest.mark.parametrize("path, old, new, caught", params)(case)


for _name, _case in SEEDED.items():
    globals()[_name] = _seeded_case(*_case)



# -- rule (s): one key for the tracer and the census --------------------------------------

#: each shape of ``def`` whose code object the tracer must map to the census's key
_KEYED = """\
import dataclasses
import functools


def plain(flag=None):
    def nested():
        return 1

    return nested()


class Box:
    @property
    def size(self):
        return 2

    @classmethod
    def make(cls):
        return cls()


@functools.cache
def cached(n):
    return [n for _ in range(n)]


@dataclasses.dataclass
class Record:
    x: int = 0

    def __post_init__(self):
        self.x += 1
"""


def test_tracer_and_census_key_each_function_alike(tmp_path):
    from tests.reach import Tracer

    path = tmp_path / "keyed.py"
    path.write_text(_KEYED)
    spec = importlib.util.spec_from_file_location("keyed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer, previous = Tracer([path], root=tmp_path), sys.gettrace()
    sys.settrace(tracer.hook)
    try:
        module.plain()
        module.Box.make().size
        module.cached(2)
        module.Record()
    finally:
        sys.settrace(previous)
    keys = {d.key for d in definitions(path, ast.parse(_KEYED), tmp_path)}
    names = ["plain", "plain.nested", "Box.size", "Box.make", "cached", "Record.__post_init__"]
    assert tracer.entered == keys == {f"keyed.py:{name}" for name in names}
    assert tracer.nones == {"keyed.py:plain.flag": True}


def _reach_with(functions: dict[str, bool]) -> dict:
    """``REACH.json`` over the functions the code defines (one the file
    lacks counts as entered), with ``functions`` set and no ``None`` clause."""
    listed = _reach()["functions"]
    keys = [d.key for path in _files("src") for d in definitions(path, Sources().parse(path))]
    return {"functions": {**{k: listed.get(k, True) for k in keys}, **functions}, "none_params": {}}


#: rule (s)'s plants: ``(text before _THEORY_END, REACH.json entries, caught)``
_REACH_PLANTS = {
    "never_entered": (_SEEDED, {f"{_THEORY}:_Seeded.seeded_step": False},
                      [f"{_THEORY}:_Seeded.seeded_step is entered by no product run"]),
    "missing": (_SEEDED, {}, [f"{_THEORY}:_Seeded.seeded_step is missing from REACH.json"]),
    "gone": ("", {f"{_THEORY}:_seeded_gone": True}, [f"{_THEORY}:_seeded_gone is in REACH.json but defined nowhere"]),
    "dunder": ("\nclass _Seeded:\n    def __len__(self):\n        return 1\n\n\n",
               {f"{_THEORY}:_Seeded.__len__": False}, []),
    "abstract_stub": ("\nclass _Seeded:\n    def seeded_step(self):\n        raise NotImplementedError\n\n\n",
                      {f"{_THEORY}:_Seeded.seeded_step": False}, []),
    "abstract_member": ("\nclass _Seeded(ABC):\n    @abstractmethod\n    def seeded_step(self):\n        return 1\n\n\n",
                        {f"{_THEORY}:_Seeded.seeded_step": False}, []),
    "constructor": ("\nclass _Seeded:\n    def __init__(self):\n        self.n = 1\n\n\n",
                    {f"{_THEORY}:_Seeded.__init__": False}, [f"{_THEORY}:_Seeded.__init__ is entered by no product run"]),
}


@pytest.mark.parametrize("plant", _REACH_PLANTS)
def test_seeded_reach_disagreement_is_caught(plant):
    text, functions, caught = _REACH_PLANTS[plant]
    sources = _patched("cardest/theory.py", _THEORY_END, text + _THEORY_END) if text else Sources()
    assert reach_violations(sources, _reach_with(functions)) == caught


@pytest.mark.parametrize("given", [False, True])
def test_seeded_none_default_no_run_gives_is_caught(given):
    """Rule (s)'s ``None`` clause: a ``None`` default fails exactly when
    no product run gives it ``None``."""
    name = "src/repro/bench/report.py:render_stats.note"
    reach = {**_reach_with({}), "none_params": {name: given}}
    caught = [] if given else [f"{name} defaults to None, which no product run gives it"]
    assert reach_violations(Sources(), reach) == caught
