"""The census as a test: no caller, no code.

On the platform layers (``serve``, ``serve.fabric``, ``lifecycle``,
``faults`` and the helpers they grew in ``core``, ``e2e``, ``pilotscope``
and ``optimizer``) four things must hold.  (a), (b) and (d) only read source
files -- nothing is imported from ``repro`` or ``perf``, and an absent
directory is skipped; (c) imports the examples:

(a) every name a package ``__init__`` exports is imported *through that
    package* by some file outside it;
(b) every public class, function and method defined there is referenced by
    code outside ``tests/`` -- somewhere other than its own ``def`` and
    ``__init__`` re-export lines -- or is on the commented allow-list below;
(c) every ``examples/*.py`` still imports (without running it), which is
    what catches a pruned re-export or a renamed class an example uses;
(d) every keyword parameter defined there is named by some file that does
    not define it: a knob only its own definers mention has had one value.

A failure names the file and the symbol.  The fix is to delete the code (or
the export), not to grow the allow-list: that list is the backlog of
features only tests exercise.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CODE_TREES = ("src", "benchmarks", "perf", "examples")

#: package -> its directory; (a) is checked for each ``__all__``
PACKAGES = {
    "repro.serve": SRC / "serve",
    "repro.serve.fabric": SRC / "serve" / "fabric",
    "repro.lifecycle": SRC / "lifecycle",
    "repro.faults": SRC / "faults",
}

#: modules outside those packages that (b) also covers
HELPER_MODULES = (
    "core/errors.py",
    "core/framework.py",
    "core/interfaces.py",
    "e2e/loop.py",
    "pilotscope/console.py",
    "optimizer/cost.py",
    "optimizer/risk.py",
    "optimizer/plancache.py",
)

#: declared interfaces: implemented structurally, never named by a caller
PROTOCOLS = {"CostEstimator", "LatencyPredictor"}

#: features with tests but no scenario, bench or example behind them --
#: kept, and listed here so the next re-anchor can decide each one
TEST_ONLY = {
    "RiskLambdaTuner",  # blended-risk lambda tuning policy (PR 13)
    "sharded_fabric_scenario",  # full per-shard stack at test scale
    "shard_fault_plan",  # its reroute drills' fault plans
    "default_retrainer",  # Retrainable-surface retrainer; scenarios use Warper
    "force_retrain",  # operator escape hatch past triggers and cooldown
    "rollback",  # manual demotion; every scenario demotes via auto_rollback
    "lineage",  # registry ancestry walk
    "stop_driver",  # console driver lifecycle
    "enable_background_updates",  # console periodic background_update
}


@lru_cache(maxsize=None)
def _text(path: Path) -> str:
    return path.read_text()


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(_text(path), filename=str(path))


def _files(*trees: str) -> list[Path]:
    return [p for t in trees if (ROOT / t).is_dir() for p in sorted((ROOT / t).rglob("*.py"))]


def _is_reexport_file(path: Path) -> bool:
    return path.name == "__init__.py" and SRC in path.parents


def _exports(init: Path) -> list[str]:
    for node in _parse(init).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    raise AssertionError(f"{init} defines no __all__")


# -- (a) every export has an importer -------------------------------------------------


@lru_cache(maxsize=None)
def _from_imports() -> list[tuple[str, str, Path]]:
    """Every ``from <module> import <name>`` in the repo: (module, name, file)."""
    return [
        (node.module, alias.name, path)
        for path in _files(*CODE_TREES, "tests")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    ]


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_every_export_is_imported_through_the_package(package):
    directory = PACKAGES[package]
    imported = {
        name
        for module, name, path in _from_imports()
        if module == package and directory not in path.parents
    }
    unused = [name for name in _exports(directory / "__init__.py") if name not in imported]
    assert not unused, (
        f"{package}.__all__ exports names nothing outside {directory.relative_to(ROOT)} "
        f"imports through it: {unused} -- drop the re-export; callers that need the "
        "name import it from the module that defines it"
    )


# -- (b) every public definition has a reference --------------------------------------


def _references(paths: list[Path]) -> set[str]:
    """Identifiers those files use: names, attributes and imported names
    (a package ``__init__``'s re-export imports are not a use)."""
    names: set[str] = set()
    for path in paths:
        reexport = _is_reexport_file(path)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not reexport:
                names.update(alias.name for alias in node.names)
    return names


def _census_modules() -> list[Path]:
    return [
        p
        for directory in PACKAGES.values()
        for p in sorted(directory.glob("*.py"))
        if p.name != "__init__.py"
    ] + [SRC / m for m in HELPER_MODULES]


def _public_definitions() -> list[tuple[str, str]]:
    """``(file, symbol)`` of every public top-level class / function, and
    every public method of those classes, in the census modules."""
    out = []
    for path in _census_modules():
        where = str(path.relative_to(ROOT))
        for node in _parse(path).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) or node.name.startswith("_"):
                continue
            out.append((where, node.name))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    out.append((where, sub.name))
    return out


def test_every_public_definition_is_referenced():
    used_by_code = _references(_files(*CODE_TREES))
    used_by_tests = _references(_files("tests"))
    allowed = PROTOCOLS | TEST_ONLY
    definitions = _public_definitions()
    dead = [d for d in definitions if d[1] not in used_by_code and d[1] not in allowed]
    assert not dead, (
        f"defined but referenced by nothing under {CODE_TREES}: {dead} -- delete them "
        "(with their __all__ entries and docs), or, for a feature only tests "
        "exercise, list it in TEST_ONLY with a reason"
    )
    defined = {symbol for _, symbol in definitions}
    stale = sorted(n for n in allowed if n not in defined or n in used_by_code)
    assert not stale, f"allow-listed but gone, or no longer test-only: {stale}"
    untested = sorted(n for n in TEST_ONLY if n not in used_by_tests)
    assert not untested, f"TEST_ONLY names no test references either: {untested}"


# -- (c) every example imports ---------------------------------------------------------


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_imports(example):
    spec = importlib.util.spec_from_file_location(f"_census_{example.stem}", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not as __main__: the example does not run


# -- (d) every keyword parameter has a second value somewhere --------------------------

#: passed positionally by every caller, so never *named* outside its definer
POSITIONAL = {"n_tenants"}


def test_every_keyword_parameter_is_named_outside_its_definers():
    definers: dict[str, set[Path]] = {}
    for path in _census_modules():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults) :]
                for arg in defaulted + args.kwonlyargs:
                    definers.setdefault(arg.arg, set()).add(path)
    words = {p: set(re.findall(r"\w+", _text(p))) for p in _files(*CODE_TREES, "tests")}
    never_set = sorted(
        (name, sorted(str(p.relative_to(ROOT)) for p in paths))
        for name, paths in definers.items()
        if name not in POSITIONAL
        and not any(name in found for p, found in words.items() if p not in paths)
    )
    assert not never_set, (
        f"keyword parameters no file but their definers names: {never_set} -- one "
        "value has ever been in use; make it the constant it is"
    )
