"""The census as a test: no caller, no code.

Over every package and every module under ``src/repro`` nine things must
hold, another over ``benchmarks/``, three over ``src/``,
``benchmarks/`` and ``examples/`` and another over every code tree and
``tests/``.  All but (c) only read source files --
nothing is imported from ``repro`` or ``perf``, and an absent directory is
skipped; (c) imports the examples, and one case of (g) builds the records
it names:

(a) every name a package ``__init__`` exports is imported *through that
    package* by some file outside it (the top-level ``repro`` facade is the
    documented entry point and is exempt);
(b) every public class, function and method is referenced by code outside
    ``tests/`` -- somewhere other than its own ``def`` and ``__init__``
    re-export lines -- or by a ``"module:Class"`` row of
    ``core/registry.py`` (the paper's Table 1 is the product: a row names
    the class and its public methods), or is on the commented allow-list;
(c) every ``examples/*.py`` still imports (without running it), which is
    what catches a pruned re-export or a renamed class an example uses;
(d) every parameter with a default is named by some file under ``src/``,
    ``benchmarks/``, ``perf/`` or ``examples/`` that does not define it: a
    knob only its definers and the tests turn has one product value, so it
    is a constant.  A required keyword-only argument is not a knob.  A name
    product code sets where the rule cannot see it is on ``POSITIONAL``, a
    knob kept for the tests on ``TEST_SEAMS``; each entry gives its reason
    and fails once the rule would pass without it;
(e) every ``@dataclass`` that declares or inherits a ``latency_ms`` field is
    one of the listed records, one per boundary a query crosses: a class
    that re-labels the previous layer's record has nowhere to hide;
(f) there is one bench contract: every module ``benchmarks.BENCHMARKS``
    names defines a top-level ``export``, every T / E bench and P1 a
    top-level ``measure``, no function under ``benchmarks/`` takes
    the ``benchmark`` timing fixture or a ``profile``, no module there
    reads ``os.environ`` or defines ``_PROFILES`` (one size: an export is
    a function of its key and seed alone), and no function of a registered
    bench that takes a ``seed`` passes a literal ``seed=<int>`` on (it
    is ``<int> + seed``, or the input comes from a seed-free builder);
(g) the request path is single-writer: no module imports ``threading``,
    and every record built once per request -- each frozen record of (e)
    plus ``Request``, ``Rejected`` and ``FabricRequest`` -- is
    ``slots=True`` (no per-instance ``__dict__`` to build); slotting keeps
    pickling, copying, ``dataclasses.replace``, equality and immutability;
(h) there is one LRU: nothing outside ``core/lru.py`` -- no subclass, no
    observer, no test -- touches a ``BoundedLRU``'s ``_entries``.  A read
    goes through ``get`` (counted) or ``peek`` (no trace), a write through
    ``put``, so the counters and the eviction order mean what they say;
(i) feedback only records: no file under ``src/``, ``benchmarks/`` or
    ``examples/`` names ``retrain_every`` or ``_since_retrain`` (the
    ``tests/*_reference.py`` copies keep theirs).  When a model refits is
    one ``RetrainCadence``, set where the stack is built;
(j) a bootstrap member is read after its owed fit: no file but
    ``e2e/risk_models.py`` and its eager copy
    (``tests/risk_models_reference.py``) names ``_members``.  A reader goes
    through ``members()``, which runs what a retrain left owed, so nothing
    sees the weights a retrain is about to replace;
(k) there is one subset enumeration: no file under ``src/`` but
    ``sql/joingraph.py`` calls ``combinations`` with a size that is not a
    literal (a loop over sizes enumerates subsets or partitions) or walks
    ``join_adjacency()``.  The DP, LEON's top-k DP, the sub-query list and
    the exact counter read the compiled ``JoinGraph``; ``ENUMERATORS``
    names the one exemption and its reason;
(l) there is one exact counter: no file under ``src/`` defines
    ``_tree_count``, ``_materialized_count`` or ``_join_graph_is_tree``.
    ``CardinalityExecutor._count`` runs every join graph's recipe (peel,
    then the core); the two strategies it replaced keep their copies in
    ``tests/executor_reference.py``;
(m) there is one template identity: no file under ``src/``,
    ``benchmarks/`` or ``examples/`` names ``predicate_template`` or
    renders a ``?`` placeholder -- a string (not a docstring) with a ``?``
    standing after a space, a parenthesis or a comma, or a ``"?"`` joined
    into text.  ``Query.template_key`` is a tuple of shapes; the text key
    it replaced is ``tests/statistics_reference.py``'s;
(n) there is one tree-conv training plan: no file under ``src/``,
    ``benchmarks/`` or ``examples/`` but ``ml/treeconv.py`` defines or
    calls ``batches`` (a per-epoch batch generator) or gathers at a
    batch's ``idx3`` (layer 1 read from a per-batch features block).  A
    loop iterates ``PlanTreeCorpus.plan``, whose layer 1 reads the
    per-fit table; the per-batch gathers live on in
    ``tests/treeconv_reference.py``;
(o) the per-decision triggers read a sorted window:
    ``lifecycle/scheduler.py`` calls no ``quantile`` or ``percentile``
    (numpy's or its ``nan`` variants).  ``QErrorTrigger`` keeps its window
    sorted as it observes and reads numpy's ``linear`` quantile off it
    with numpy's own arithmetic, instead of sorting the window again on
    every served decision.

A failure names the file and the symbol.  The fix is to delete the code (or
the export), not to grow the allow-list: that list is the backlog of
features only tests exercise.  The ``test_seeded_*`` cases re-run the rules
over the tree with one file's text replaced, to show each rule bites.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib.util
import pickle
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CODE_TREES = ("src", "benchmarks", "perf", "examples")

#: declared interfaces: implemented structurally, never named by a caller
PROTOCOLS = {"CostEstimator", "LatencyPredictor"}

#: features with tests but no scenario, bench or example behind them --
#: kept, and listed here so the next re-anchor can decide each one
TEST_ONLY = {
    "RiskLambdaTuner",  # blended-risk lambda tuning policy (PR 13)
    "sharded_fabric_scenario",  # full per-shard stack at test scale
    "shard_fault_plan",  # its reroute drills' fault plans
    "lineage",  # registry ancestry walk
    "stop_driver",  # console driver lifecycle
    # -- the paper library (PR 20) --
    "execute_cardinality",  # one-shot exact count: the engine tests' seam (20 asserts)
    "RegressionTree",  # the GBDT kernel test's unit: a lone tree as a one-root table
    "push_config",  # paper section 3.1's push operator list
    "pull_native_estimate",  # ... and its pull operator list
    "generate_names",  # Astrid's synthetic string column (Astrid is registry-only)
    "ConcurrentWorkload",  # interference simulator labelling ConcurrentCostModel's mixes
    "AutoSteerOptimizer",  # AutoSteer [1]; benches run discover_hint_sets only
    "RewriteDriver",  # PilotScope form of the rewrite layer; scenarios use RewritingOptimizer
    "flow_loss_weights",  # Flow-Loss [44] sample weighting
    "pac_learning_curve",  # PAC learnability diagnostic [19]
    "interval_coverage",  # prediction-interval diagnostic [55]
}

#: rule (d): parameters product code sets where the rule cannot see the
#: name -- positionally, or inside the file that defines them -- with the
#: call sites that do
POSITIONAL = {
    "min_tables": "WorkloadGenerator(...).workload(n, 1, 3 | 2, 4 | 2, 3, ...) in src/ and benchmarks/",
    "max_tables": "the same generator calls: 3, 4 and 3",
    "uppers": "cardest/base.py: sanitize_estimates(values, uppers); optimizer/cost.py passes none",
    "left_deep_only": "optimizer/planner.py: enumerate_dp(..., left_deep_only=True) for the left-deep hint set",
    "n_members": "e2e/risk_models.py: EnsembleLatencyModel builds TreeConvLatencyModel(featurizer, 4, ...); Bao keeps 3",
    "n_tenants": "perf/workloads.py: default_tenant_specs(6); the fabric scenario takes the default",
}

#: rule (d): knobs only tests turn, kept on purpose
TEST_SEAMS = {
    # -- safety bounds: tests shrink them to reach the bound; never a tuning target
    "cache_capacity": "engine/executor.py: the exact executor's memo; tests fill it to evict",
    "max_intermediate_rows": "engine/executor.py: the row budget an exact count may not exceed",
    "max_rows": "oracle: the reference executors' row budget; tests trip it",
    "trace_capacity": "serve telemetry: the bounded trace ring; tests wrap it",
    "max_log_entries": "pilotscope/console.py: the bounded query log; tests cap it",
    # -- deferred: ROADMAP item 7 decides the feature they tune
    "target_rate": "RiskLambdaTuner (TEST_ONLY), ROADMAP item 7",
    "min_lambda": "RiskLambdaTuner (TEST_ONLY), ROADMAP item 7",
    "max_lambda": "RiskLambdaTuner (TEST_ONLY), ROADMAP item 7",
    "risk_lambda": "the blended risk mode RiskLambdaTuner steers, ROADMAP item 7",
    "sample_weight": "MLP.fit: Flow-Loss weighting (flow_loss_weights, TEST_ONLY), ROADMAP item 7",
    # -- deferred: ROADMAP item 5 decides the sharded fabric's fault drills
    "fault_plan": "the fabric scenarios' reroute drills (shard_fault_plan, TEST_ONLY), ROADMAP item 5",
}


@lru_cache(maxsize=None)
def _read(path: Path) -> str:
    return path.read_text()


@lru_cache(maxsize=None)
def _parse_text(text: str, filename: str) -> ast.Module:
    return ast.parse(text, filename=filename)


@lru_cache(maxsize=None)
def _file_facts(text: str, filename: str, reexport: bool):
    """``(from-imports, identifiers, words)`` of one file's text.

    Identifiers are names, attributes and imported names (a package
    ``__init__``'s re-export imports are not a use)."""
    imports, names = [], set()
    for node in ast.walk(_parse_text(text, filename)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                imports.extend((node.module, alias.name) for alias in node.names)
            if not reexport:
                names.update(alias.name for alias in node.names)
    return imports, frozenset(names), frozenset(re.findall(r"\w+", text))


@lru_cache(maxsize=None)
def _files(*trees: str) -> tuple[Path, ...]:
    return tuple(
        p for t in trees if (ROOT / t).is_dir() for p in sorted((ROOT / t).rglob("*.py"))
    )


class Sources:
    """The repository's Python files; ``patched`` replaces the text of some
    (that is how the seeded cases plant what each rule must catch)."""

    def __init__(self, patched: dict[Path, str] | None = None) -> None:
        self.patched = patched or {}

    def text(self, path: Path) -> str:
        return self.patched[path] if path in self.patched else _read(path)

    def parse(self, path: Path) -> ast.Module:
        return _parse_text(self.text(path), str(path))

    def facts(self, path: Path):
        reexport = path.name == "__init__.py" and SRC in path.parents
        return _file_facts(self.text(path), str(path), reexport)

    def references(self, *trees: str) -> set[str]:
        return set().union(*(self.facts(p)[1] for p in _files(*trees)))


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
        for module, name in sources.facts(path)[0]
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


def _public_definitions(sources: Sources):
    """``[(file, symbol)]`` of every public top-level class / function and
    public method under ``src/repro``, and ``{class: its public methods}``."""
    definitions, methods = [], {}
    for path in _files("src"):
        if path.name == "__init__.py":
            continue
        where = str(path.relative_to(ROOT))
        for node in sources.parse(path).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) or node.name.startswith("_"):
                continue
            definitions.append((where, node.name))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    definitions.append((where, sub.name))
                    methods.setdefault(node.name, set()).add(sub.name)
    return definitions, methods


def _registry_references(sources: Sources, methods: dict[str, set[str]]) -> set[str]:
    """Classes named by a ``"module:Class"`` string in the method registry,
    and their public methods."""
    classes = {
        match.group(1)
        for node in ast.walk(sources.parse(SRC / "core" / "registry.py"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for match in [re.search(r":(\w+)$", node.value)]
        if match
    }
    return classes.union(*(methods.get(c, ()) for c in classes))


def unreferenced_definitions(sources: Sources):
    """``(dead, stale, untested)``: definitions nothing but tests uses, and
    allow-list entries that stopped being true."""
    definitions, methods = _public_definitions(sources)
    used = sources.references(*CODE_TREES) | _registry_references(sources, methods)
    allowed = PROTOCOLS | TEST_ONLY
    dead = [d for d in definitions if d[1] not in used and d[1] not in allowed]
    defined = {symbol for _, symbol in definitions}
    stale = sorted(n for n in allowed if n not in defined or n in used)
    used_by_tests = sources.references("tests")
    untested = sorted(n for n in TEST_ONLY if n not in used_by_tests)
    return dead, stale, untested


def test_every_public_definition_is_referenced():
    dead, stale, untested = unreferenced_definitions(Sources())
    assert not dead, (
        f"defined but referenced by nothing under {CODE_TREES}: {dead} -- delete them "
        "(with their __all__ entries and docs), or, for a feature only tests "
        "exercise, list it in TEST_ONLY with a reason"
    )
    assert not stale, f"allow-listed but gone, or no longer test-only: {stale}"
    assert not untested, f"TEST_ONLY names no test references either: {untested}"


# -- (c) every example imports ---------------------------------------------------------


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_imports(example):
    spec = importlib.util.spec_from_file_location(f"_census_{example.stem}", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not as __main__: the example does not run


# -- (d) every knob has a second product value ----------------------------------------


def _knobs(sources: Sources) -> dict[str, set[Path]]:
    """``{parameter: its defining files}`` over every parameter with a
    default under ``src/repro``."""
    definers: dict[str, set[Path]] = {}
    for path in _files("src"):
        for node in ast.walk(sources.parse(path)):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults) :]
                keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for arg in defaulted + keyword:
                    definers.setdefault(arg.arg, set()).add(path)
    return definers


def never_set_keywords(sources: Sources):
    """``(never_set, stale)``: ``[(parameter, its defining files)]`` for
    every knob no product file but its definers names, less the allow-lists,
    and the allow-list entries that are no knob or that product code names."""
    definers = _knobs(sources)
    flagged = {
        name: sorted(str(p.relative_to(ROOT)) for p in paths)
        for name, paths in definers.items()
        if not any(name in sources.facts(p)[2] for p in _files(*CODE_TREES) if p not in paths)
    }
    allowed = POSITIONAL.keys() | TEST_SEAMS.keys()
    never_set = sorted((n, paths) for n, paths in flagged.items() if n not in allowed)
    return never_set, sorted(n for n in allowed if n not in flagged)


def test_every_keyword_parameter_is_named_outside_its_definers():
    never_set, stale = never_set_keywords(Sources())
    assert not never_set, (
        f"parameters with a default that no file under {CODE_TREES} but their "
        f"definers names: {never_set} -- the product has one value for each; make it "
        "the constant it is (a test that turns it runs at that value), or list it "
        "in POSITIONAL / TEST_SEAMS with a reason"
    )
    assert not stale, f"POSITIONAL / TEST_SEAMS entries that are no knob or that product code names: {stale}"
    assert not POSITIONAL.keys() & TEST_SEAMS.keys()
    tests = [
        p
        for p in _files("tests")
        if not p.name.endswith("_reference.py") and p != Path(__file__).resolve()
    ]
    turned = set().union(*(Sources().facts(p)[2] for p in tests))
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def latency_records(sources: Sources) -> list[str]:
    """Every ``@dataclass`` under ``src/repro`` with a ``latency_ms`` field
    of its own or of a base class (bases resolved by name)."""
    classes = {
        node.name: node
        for path in _files("src")
        for node in ast.walk(sources.parse(path))
        if isinstance(node, ast.ClassDef)
    }

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

BENCH = ROOT / "benchmarks"


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
        tree = sources.parse(BENCH / f"{module}.py")
        top = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                top.add(node.name)
            elif isinstance(node, ast.Assign):
                top.update(t.id for t in node.targets if isinstance(t, ast.Name))
        tabled = not re.fullmatch(r"p([2-9]|10)", key)
        needed = ["export", "measure"] if tabled else ["export"]
        found += [f"{module}.py defines no top-level {n}" for n in needed if n not in top]
        found += [
            f"{module}.py:{keyword.value.lineno}: {function.name}(seed) pins seed={keyword.value.value}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and "seed" in _parameters(function)
            for call in ast.walk(function)
            if isinstance(call, ast.Call)
            for keyword in call.keywords
            if keyword.arg == "seed"
            and isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, int)
        ]
    for path in _files("benchmarks"):
        for node in ast.walk(sources.parse(path)):
            if isinstance(node, ast.FunctionDef):
                found += [
                    f"{path.name}: {node.name} takes {what}"
                    for parameter, what in (
                        ("benchmark", "the benchmark fixture"),
                        ("profile", "a profile"),
                    )
                    if parameter in _parameters(node)
                ]
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                found.append(f"{path.name}:{node.lineno}: reads os.environ")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Name) and t.id == "_PROFILES"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ):
                found.append(f"{path.name}:{node.lineno}: defines _PROFILES")
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
#: frozen record of (e) they must be slotted
REQUEST_RECORDS = {"Request", "Rejected", "FabricRequest"}


def _dataclass_flags(node: ast.ClassDef) -> dict:
    """The constant keywords of a class's ``@dataclass(...)`` decorator."""
    return {
        keyword.arg: keyword.value.value
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call)
        for keyword in decorator.keywords
        if isinstance(keyword.value, ast.Constant)
    }


def single_writer_violations(sources: Sources) -> list[str]:
    """Per-request records that are not slotted, and modules under
    ``src/repro`` that import ``threading``, one line each."""
    found = []
    flags = {}
    for path in _files("src"):
        for node in ast.walk(sources.parse(path)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                flags[node.name] = _dataclass_flags(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                found += [
                    f"{path.relative_to(ROOT)}:{node.lineno} imports threading"
                    for module in modules
                    if module.split(".")[0] == "threading"
                ]
    slotted = {n for n in RECORDS if flags.get(n, {}).get("frozen")} | REQUEST_RECORDS
    found += [
        f"{name} is not slots=True"
        for name in sorted(slotted)
        if not flags.get(name, {}).get("slots")
    ]
    return found


def test_request_path_is_single_writer():
    found = single_writer_violations(Sources())
    assert not found, (
        f"{found} -- one loop writes the bus and builds every per-request record: "
        "no lock, no thread, and each record a frozen, slotted dataclass"
    )


# -- (h) one LRU ------------------------------------------------------------------------


def _lru_classes(sources: Sources) -> set[str]:
    """``BoundedLRU`` and every class under ``src/repro`` that derives from
    it (bases resolved by name)."""
    bases = {
        node.name: {getattr(b, "id", getattr(b, "attr", "")) for b in node.bases}
        for path in _files("src")
        for node in ast.walk(sources.parse(path))
        if isinstance(node, ast.ClassDef)
    }
    lru = {"BoundedLRU"}
    while True:
        grown = lru | {name for name, of in bases.items() if of & lru}
        if grown == lru:
            return lru
        lru = grown


def lru_entries_violations(sources: Sources) -> list[str]:
    """Every ``._entries`` outside ``core/lru.py`` that may be a
    ``BoundedLRU``'s: anything but ``self._entries`` in a class that is no
    LRU (the rewrite leaderboard keeps a list of that name)."""
    lru, found = _lru_classes(sources), []

    def visit(node: ast.AST, owner: str | None, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_entries":
                own = isinstance(child.value, ast.Name) and child.value.id == "self"
                if not own or owner is None or owner in lru:
                    found.append(f"{path.relative_to(ROOT)}:{child.lineno} touches _entries")
            visit(child, owner, path)

    for path in _files(*CODE_TREES, "tests"):
        if path != SRC / "core" / "lru.py":
            visit(sources.parse(path), None, path)
    return found


def test_only_the_lru_touches_its_entries():
    found = lru_entries_violations(Sources())
    assert not found, (
        f"{found} -- a BoundedLRU's entries are its own: read through get / peek, "
        "write through put, so the counters and the eviction order stay true"
    )


# -- (i) feedback only records --------------------------------------------------------

#: the in-band retrain knobs the one cadence replaced
IN_BAND_KNOBS = ("retrain_every", "_since_retrain")


def in_band_retrain_violations(sources: Sources) -> list[str]:
    """Every file under ``src/``, ``benchmarks/`` and ``examples/`` that
    names an in-band retrain knob, one line each."""
    return [
        f"{path.relative_to(ROOT)} names {knob}"
        for path in _files("src", "benchmarks", "examples")
        for knob in IN_BAND_KNOBS
        if knob in sources.facts(path)[2]
    ]


def test_feedback_only_records():
    found = in_band_retrain_violations(Sources())
    assert not found, (
        f"{found} -- a model records feedback and nothing else; when it refits is "
        "one RetrainCadence (core/framework.py), set where the stack is built"
    )


# -- (j) members are read through members() --------------------------------------------

#: the files that may name a bootstrap ensemble's raw member list
MEMBER_OWNERS = (SRC / "e2e" / "risk_models.py", ROOT / "tests" / "risk_models_reference.py")


def raw_member_violations(sources: Sources) -> list[str]:
    """Every file outside ``MEMBER_OWNERS`` with a ``_members`` name or
    attribute, one line each."""
    return [
        f"{path.relative_to(ROOT)} names _members"
        for path in _files(*CODE_TREES, "tests")
        if path not in MEMBER_OWNERS and "_members" in sources.facts(path)[1]
    ]


def test_members_are_read_after_their_owed_fits():
    found = raw_member_violations(Sources())
    assert not found, (
        f"{found} -- a retrain leaves each member a fit it owes; read the "
        "ensemble through members(), which runs it first"
    )


# -- (k) one subset enumeration --------------------------------------------------------

#: the files under ``src/`` that may enumerate a join graph's subsets, and why
ENUMERATORS = {
    SRC / "sql" / "joingraph.py": "the compiled JoinGraph: the one enumeration",
    SRC / "oracle" / "contracts.py": (
        "the oracle's own connected-subset walk, kept independent of the code it checks"
    ),
}


def subset_enumeration_violations(sources: Sources) -> list[str]:
    """Every ``combinations`` call with a non-literal size and every
    ``join_adjacency()`` call under ``src/`` outside ``ENUMERATORS``."""
    found = []
    for path in _files("src"):
        if path in ENUMERATORS:
            continue
        for node in ast.walk(sources.parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            sizes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "r"]
            if name == "combinations" and not all(isinstance(a, ast.Constant) for a in sizes):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} enumerates subsets")
            elif name == "join_adjacency":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} walks the join graph")
    return found


def test_one_subset_enumeration():
    found = subset_enumeration_violations(Sources())
    assert not found, (
        f"{found} -- subsets and partitions are compiled once per join graph: "
        "read join_graph(query).subsets / .partitions (sql/joingraph.py)"
    )
    assert all(path.is_file() for path in ENUMERATORS), "a stale ENUMERATORS entry"


# -- (l) one exact counter ---------------------------------------------------------------

#: the counting strategies and the dispatch the one counter replaced
REPLACED_COUNTERS = ("_tree_count", "_materialized_count", "_join_graph_is_tree")


def second_counter_violations(sources: Sources) -> list[str]:
    """Every function or method under ``src/`` named after a replaced
    counting strategy, one line each."""
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} defines {node.name}"
        for path in _files("src")
        for node in ast.walk(sources.parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in REPLACED_COUNTERS
    ]


def test_one_exact_counter():
    found = second_counter_violations(Sources())
    assert not found, (
        f"{found} -- every count runs its join graph's recipe in "
        "CardinalityExecutor._count: peel the tables with one join left, then "
        "count the core (engine/executor.py)"
    )


# -- (m) one template identity -----------------------------------------------------------

#: a ``?`` where a literal would stand: after a space, a parenthesis or a comma
PLACEHOLDER = re.compile(r"[\s(,]\?(?:$|[\s),])")


def _docstrings(tree: ast.Module) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def template_text_violations(sources: Sources) -> list[str]:
    """Every file under ``src/``, ``benchmarks/`` or ``examples/`` naming
    ``predicate_template``, and every placeholder string there, one line
    each."""
    found = []
    for path in _files("src", "benchmarks", "examples"):
        where = path.relative_to(ROOT)
        if "predicate_template" in sources.facts(path)[2]:
            found.append(f"{where} names predicate_template")
        tree = sources.parse(path)
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and PLACEHOLDER.search(node.value)
            ):
                found.append(f"{where}:{node.lineno} renders a placeholder")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "join":
                if any(
                    isinstance(n, ast.Constant) and n.value == "?"
                    for arg in node.args
                    for n in ast.walk(arg)
                ):
                    found.append(f"{where}:{node.lineno} joins placeholders")
    return found


def test_one_template_identity():
    found = template_text_violations(Sources())
    assert not found, (
        f"{found} -- a template is Query.template_key's tuple of shapes "
        "(sql/query.py); the text key lives on only in tests/statistics_reference.py"
    )


# -- (n) one tree-conv training plan -----------------------------------------------------

#: the file that builds batch index arrays and gathers layer-1 rows
PLAN_OWNER = SRC / "ml" / "treeconv.py"


def _names_idx3(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "idx3" for n in ast.walk(node)
    )


def training_plan_violations(sources: Sources) -> list[str]:
    """Every ``batches`` definition or call, and every subscript or ``take``
    at an ``.idx3``, under ``src/``, ``benchmarks/`` or ``examples/`` outside
    ``PLAN_OWNER``, one line each."""
    found = []
    for path in _files("src", "benchmarks", "examples"):
        if path == PLAN_OWNER:
            continue
        where = path.relative_to(ROOT)
        for node in ast.walk(sources.parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "batches":
                found.append(f"{where}:{node.lineno} defines batches")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "batches":
                found.append(f"{where}:{node.lineno} batches per epoch")
            elif (isinstance(node, ast.Subscript) and _names_idx3(node.slice)) or (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == "take"
                and any(_names_idx3(arg) for arg in node.args)
            ):
                found.append(f"{where}:{node.lineno} gathers at idx3")
    return found


def test_one_training_plan():
    found = training_plan_violations(Sources())
    assert not found, (
        f"{found} -- a tree-conv loop iterates PlanTreeCorpus.plan(orders, "
        "batch_size), built a block of epochs at a time; layer 1 reads the "
        "per-fit [node; left; right] table (ml/treeconv.py)"
    )


# -- (o) the per-decision triggers read a sorted window -----------------------------------

#: the module whose triggers check on every served decision
TRIGGERS = SRC / "lifecycle" / "scheduler.py"
WINDOW_QUANTILES = ("quantile", "percentile", "nanquantile", "nanpercentile")


def window_quantile_violations(sources: Sources) -> list[str]:
    """Every call of a name in ``WINDOW_QUANTILES`` in ``TRIGGERS``, one
    line each."""
    found = []
    for node in ast.walk(sources.parse(TRIGGERS)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name in WINDOW_QUANTILES:
                found.append(f"{TRIGGERS.relative_to(ROOT)}:{node.lineno} calls {name}")
    return found


def test_triggers_read_a_sorted_window():
    found = window_quantile_violations(Sources())
    assert not found, (
        f"{found} -- a trigger checks on every served decision: keep its window "
        "sorted as it observes and read the quantile off it (QErrorTrigger.current)"
    )


def test_slotted_records_round_trip(stats_workload, stats_optimizer, stats_simulator):
    """One instance of each record (g) slots: it has no ``__dict__`` and
    still pickles, deep-copies, ``replace``-s and compares by value."""
    from repro.core.interfaces import Decision
    from repro.pilotscope.console import QueryLogEntry
    from repro.serve.fabric.fabric import FabricRequest
    from repro.serve.runtime import Rejected, Request, Served

    query = stats_workload[0]
    request = Request(session_id=1, seq=2, global_seq=3, arrival_ms=4.5, query=query)
    executed = stats_simulator.execute(stats_optimizer.plan(query))
    served = Served(request, "live", "native", 1.25, 0.5, 7, estimator_tag="t", cache_hits=1)
    records = [
        request,
        served,
        Rejected(request, "quota", 0.0),
        FabricRequest("tenant0", request),
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


# -- the rules bite: one planted violation each ---------------------------------------


def _patched(relative: str, old: str, new: str, root: Path = SRC) -> Sources:
    path = root / relative
    text = _read(path)
    assert text.count(old) == 1, f"{relative}: seed anchor {old!r} not found exactly once"
    return Sources({path: text.replace(old, new)})


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
    dead, stale, untested = unreferenced_definitions(sources)
    assert dead == [("src/repro/cardest/theory.py", "seeded_unused_helper")]
    assert not stale and not untested


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


def test_seeded_keyword_nothing_passes_is_caught():
    sources = _planted("verbose: bool = False")
    assert never_set_keywords(sources) == ([("verbose", ["src/repro/ml/setconv.py"])], [])


@pytest.mark.parametrize(
    "caller, caught",
    [("tests/test_ml_models.py", True), ("perf/workloads.py", False)],
    ids=["a-test-sets-it", "perf-sets-it"],
)
def test_seeded_keyword_only_a_test_sets_is_a_constant(caller, caught):
    sources = _planted("verbose: bool = False", **{caller: "_FIT_KWARGS = dict(verbose=True)"})
    never_set, stale = never_set_keywords(sources)
    assert never_set == ([("verbose", ["src/repro/ml/setconv.py"])] if caught else [])
    assert not stale


def test_seeded_required_keyword_only_argument_is_no_knob():
    assert never_set_keywords(_planted("verbose: bool")) == ([], [])


def test_seeded_allow_list_entry_product_code_names_is_stale():
    bench = "benchmarks/contract.py"
    sources = _planted("verbose: bool", **{bench: "_MEMO = dict(cache_capacity=1024)"})
    assert never_set_keywords(sources) == ([], ["cache_capacity"])


def test_seeded_registry_row_is_a_reference_to_the_class_and_its_methods():
    planted = "\nclass SeededMethod:\n    def diagnose(self):\n        return None\n"
    theory = SRC / "cardest" / "theory.py"
    registry = SRC / "core" / "registry.py"
    anchor = "_REGISTRY: list[MethodInfo] = [\n"
    assert _read(registry).count(anchor) == 1
    row = '    MethodInfo("cardinality", "Seeded", "Seeded", "-", "-", "repro.cardest.theory:SeededMethod"),\n'
    without_row = Sources({theory: _read(theory) + planted})
    assert unreferenced_definitions(without_row)[0] == [
        ("src/repro/cardest/theory.py", "SeededMethod"),
        ("src/repro/cardest/theory.py", "diagnose"),
    ]
    with_row = Sources(
        {
            theory: _read(theory) + planted,
            registry: _read(registry).replace(anchor, anchor + row),
        }
    )
    assert unreferenced_definitions(with_row) == ([], [], [])


def test_seeded_in_band_counter_is_caught():
    sources = _patched(
        "core/framework.py",
        "        self.feedbacks = 0\n",
        "        self.feedbacks = 0\n        self._since_retrain = 0\n",
    )
    assert in_band_retrain_violations(sources) == [
        "src/repro/core/framework.py names _since_retrain"
    ]


def test_seeded_relabelled_record_is_caught():
    sources = _patched(
        "pilotscope/interactor.py",
        "\nclass PilotSession(abc.ABC):",
        "\nfrom dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
        "class ExecutionOutcome:\n    cardinality: int\n    latency_ms: float\n"
        "    plan: Plan\n\n\nclass PilotSession(abc.ABC):",
    )
    assert [n for n in latency_records(sources) if n not in RECORDS] == ["ExecutionOutcome"]


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (
            "bench_e7_bao.py",
            "\nexport = table_export(measure)\n",
            "\n",
            ["bench_e7_bao.py defines no top-level export"],
        ),
        (
            "bench_e7_bao.py",
            "\ndef measure(seed=0):",
            "\ndef run(seed=0):",
            ["bench_e7_bao.py defines no top-level measure"],
        ),
        (
            "bench_p2_serving.py",
            "def test_p2_steady_state_throughput():",
            "def test_p2_steady_state_throughput(benchmark):",
            ["bench_p2_serving.py: test_p2_steady_state_throughput takes the benchmark fixture"],
        ),
        (
            "bench_e7_bao.py",
            "BaoOptimizer(optimizer, seed=seed)",
            "BaoOptimizer(optimizer, seed=0)",
            ["bench_e7_bao.py: measure(seed) pins seed=0"],
        ),
        (
            "bench_p10_transfer.py",
            "_corpus(db, 30, seed=seed + 5)",
            "_corpus(db, 30, seed=5)",
            ["bench_p10_transfer.py: transfer_pass(seed) pins seed=5"],
        ),
        (
            "bench_p2_serving.py",
            "\nN_SESSIONS = 8\n",
            '\nN_SESSIONS = int(os.environ.get("N_SESSIONS", 8))\n',
            ["bench_p2_serving.py: reads os.environ"],
        ),
        (
            "bench_p3_chaos.py",
            "\nSCALE, N_QUERIES = 0.3, 160\n",
            '\n_PROFILES = {"quick": (0.3, 160)}\nSCALE, N_QUERIES = _PROFILES["quick"]\n',
            ["bench_p3_chaos.py: defines _PROFILES"],
        ),
        (
            "bench_p8_bounds.py",
            "def drift_pass(seed: int = 0) -> dict:",
            "def drift_pass(seed: int = 0, profile: str | None = None) -> dict:",
            ["bench_p8_bounds.py: drift_pass takes a profile"],
        ),
    ],
)
def test_seeded_bench_outside_the_contract_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new, root=BENCH)
    found = [re.sub(r":\d+:", ":", f) for f in bench_contract_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (
            "serve/runtime.py",
            "@dataclass(frozen=True, slots=True)\nclass Served:",
            "@dataclass(frozen=True)\nclass Served:",
            ["Served is not slots=True"],
        ),
        (
            "serve/fabric/fabric.py",
            "@dataclass(frozen=True, slots=True)\nclass FabricRequest:",
            "@dataclass(frozen=True)\nclass FabricRequest:",
            ["FabricRequest is not slots=True"],
        ),
        (
            "serve/telemetry.py",
            "import json\n",
            "import json\nimport threading\n",
            ["src/repro/serve/telemetry.py imports threading"],
        ),
        (
            "faults/resilience.py",
            "import enum\n",
            "import enum\nfrom threading import Lock\n",
            ["src/repro/faults/resilience.py imports threading"],
        ),
    ],
)
def test_seeded_second_writer_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in single_writer_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # a subclass reading its base's entries
            "optimizer/cardcache.py",
            "return super().peek(_key(tag, query))",
            "return self._entries.get(_key(tag, query))",
            ["src/repro/optimizer/cardcache.py touches _entries"],
        ),
        (  # an observer reaching into a cache
            "lifecycle/scheduler.py",
            "estimate = coster.cache.peek(coster.cache_tag(), decision.query)",
            "estimate = coster.cache._entries.get(coster.cache_tag())",
            ["src/repro/lifecycle/scheduler.py touches _entries"],
        ),
    ],
)
def test_seeded_reach_into_an_lru_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in lru_entries_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # a second model scoring with the raw member list
            "src/repro/e2e/hyperqo.py",
            "        self.optimizer = optimizer\n",
            "        self.optimizer = optimizer\n"
            "        self.heads = len(self.risk_model.inner._members)\n",
            ["src/repro/e2e/hyperqo.py names _members"],
        ),
        (  # a test comparing weights a retrain has not fitted yet
            "tests/test_framework_instances.py",
            'risk_model.members() if hasattr(risk_model, "members")',
            'risk_model._members if hasattr(risk_model, "_members")',
            ["tests/test_framework_instances.py names _members"],
        ),
    ],
)
def test_seeded_read_of_unforced_members_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new, root=ROOT)
    assert raw_member_violations(sources) == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # the injection surface enumerating subsets on its own again
            "pilotscope/postgres_sim.py",
            "        return query.connected_subqueries()\n",
            "        from itertools import combinations\n"
            "        return [query.subquery(c) for r in range(1, query.n_tables + 1)\n"
            "                for c in combinations(query.tables, r)]\n",
            ["src/repro/pilotscope/postgres_sim.py enumerates subsets"],
        ),
        (  # a second partition loop beside the DP's
            "e2e/exploration.py",
            "            for left_set, right_set, conditions in graph.partitions[subset]:\n",
            "            for left_combo in combinations(sorted(subset)[1:], len(subset) - 1):\n"
            "                pass\n"
            "            for left_set, right_set, conditions in graph.partitions[subset]:\n",
            ["src/repro/e2e/exploration.py enumerates subsets"],
        ),
        (  # a breadth-first walk over the query's adjacency
            "engine/executor.py",
            "        if not join_graph(query).connected:\n",
            "        if len(query.join_adjacency()) > 1 and not join_graph(query).connected:\n",
            ["src/repro/engine/executor.py walks the join graph"],
        ),
    ],
)
def test_seeded_second_subset_enumeration_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in subset_enumeration_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # the tree strategy back beside the one counter
            "engine/executor.py",
            "    def _materialize(\n",
            "    def _tree_count(self, query):\n"
            "        return self._count(query)\n\n"
            "    def _materialize(\n",
            ["src/repro/engine/executor.py defines _tree_count"],
        ),
        (  # a second dispatch on the graph's shape
            "sql/joingraph.py",
            "def join_graph(query: Query) -> JoinGraph:\n",
            "def _join_graph_is_tree(query: Query) -> bool:\n"
            "    return len(query.joins) == query.n_tables - 1\n\n\n"
            "def join_graph(query: Query) -> JoinGraph:\n",
            ["src/repro/sql/joingraph.py defines _join_graph_is_tree"],
        ),
    ],
)
def test_seeded_second_counter_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in second_counter_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # the text renderer back beside the tuple key
            "sql/query.py",
            "def query_hash(",
            "def predicate_template(pred):\n"
            "    return f\"{pred.column} {pred.op.value} ?\"\n\n\n"
            "def query_hash(",
            [
                "src/repro/sql/query.py names predicate_template",
                "src/repro/sql/query.py renders a placeholder",
            ],
        ),
        (  # a plan-cache key rendered as text again
            "optimizer/plancache.py",
            "        return (query.template_key, tag, data_version)\n",
            "        marks = \", \".join(\"?\" for _ in query.predicates)\n"
            "        return (f\"{query.tables} WHERE {marks}\", tag, data_version)\n",
            ["src/repro/optimizer/plancache.py joins placeholders"],
        ),
    ],
)
def test_seeded_text_template_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in template_text_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "relative, old, new, caught",
    [
        (  # an epoch's batches built per epoch again
            "costmodel/multitask.py",
            "        for order, batches in corpus.plan(orders, 32):\n",
            "        for order in orders:\n"
            "            batches = corpus.batches(order, 32)\n",
            ["src/repro/costmodel/multitask.py batches per epoch"],
        ),
        (  # layer 1 gathered from a per-batch features block
            "e2e/risk_models.py",
            "                scores = self.net.forward(batch)[:, 0]\n",
            "                concat = batch.features[batch.idx3]\n"
            "                scores = self.net.forward(batch)[:, 0]\n",
            ["src/repro/e2e/risk_models.py gathers at idx3"],
        ),
        (  # a batch generator of its own
            "costmodel/multitask.py",
            "    # -- fine-tuning ---",
            "    def batches(self, order):\n"
            "        yield order\n\n"
            "    # -- fine-tuning ---",
            ["src/repro/costmodel/multitask.py defines batches"],
        ),
        (  # the owner builds and gathers: not a violation
            "ml/treeconv.py",
            "        first, *rest = self.conv_layers\n",
            "        rows = batch.layer1.take(batch.idx3[:, 0] - 1, axis=0)\n"
            "        first, *rest = self.conv_layers\n",
            [],
        ),
    ],
)
def test_seeded_second_training_plan_is_caught(relative, old, new, caught):
    sources = _patched(relative, old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in training_plan_violations(sources)]
    assert found == caught


@pytest.mark.parametrize(
    "old, new, caught",
    [
        (  # the window sorted again on every check
            "        s = self._sorted\n        if not s:\n",
            "        if not self._errors:\n            return 1.0\n"
            "        return float(np.quantile(np.array(self._errors), self.quantile))\n"
            "        s = self._sorted\n        if not s:\n",
            ["src/repro/lifecycle/scheduler.py calls quantile"],
        ),
        (  # a percentile trigger of its own
            "class DriftTrigger:\n",
            "class P90Trigger:\n"
            "    def current(self):\n"
            "        from numpy import percentile\n"
            "        return percentile(self._errors, 90)\n\n\n"
            "class DriftTrigger:\n",
            ["src/repro/lifecycle/scheduler.py calls percentile"],
        ),
    ],
)
def test_seeded_trigger_sorting_its_window_is_caught(old, new, caught):
    sources = _patched("lifecycle/scheduler.py", old, new)
    found = [re.sub(r":\d+ ", " ", f) for f in window_quantile_violations(sources)]
    assert found == caught
