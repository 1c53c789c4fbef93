"""Which functions under ``src/repro`` product runs enter: ``python -m tests.reach``
writes ``REACH.json`` at the repository root.

A product run is an entry point the repository already names: each
``benchmarks`` registry key's export and its gate file under pytest, each
``examples/*.py``, README's python blocks (in order, in one namespace) and
one round of each ``perf.workloads.WORKLOADS`` workload.  Each runs in its own
subprocess (``os.cpu_count()`` at a time, ``PYTHONHASHSEED=1``) under a
``sys.settrace`` hook that returns ``None``, so it sees ``call`` events only:
the hook maps a code object to its ``def`` by file, first line (a decorated
function's first decorator's line) and name, marks the function entered, and
for each parameter whose default is the literal ``None`` notes whether the
call gave it ``None``.  A gate file may exit 1 (a failed test: p1's speed
gate fails under the tracer); any other non-zero exit fails the run.

``REACH.json`` holds, keys sorted so it diffs, ``functions``: every function
under ``src/repro``, keyed ``path:Qual.name``, and whether some run entered
it; and ``none_params``: every ``None``-defaulted parameter some run called,
keyed ``path:Qual.name.param``, and whether some call gave it ``None``.
``tests/test_census.py`` reads the file, so a change that adds, renames or
removes a function regenerates it.  A run takes about 19 CPU-minutes.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUT = ROOT / "REACH.json"


class Definition(NamedTuple):
    key: str  # ``path:Qual.name``
    line: int  # the def's first line: its first decorator's, if it has one
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: ast.ClassDef | None  # the class whose body defines it


def function_key(path: Path, qualname: str, root: Path = ROOT) -> str:
    """The one key of a function, for the tracer and the census alike."""
    return f"{path.relative_to(root).as_posix()}:{qualname}"


def definitions(path: Path, tree: ast.Module, root: Path = ROOT) -> list[Definition]:
    """Every function ``tree`` (the text of ``path``) defines, nested ones too."""
    found = []

    def visit(node: ast.AST, scope: list[str], owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [*scope, child.name], child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = [*scope, child.name]
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append(Definition(function_key(path, ".".join(qualname), root), line, child, owner))
                visit(child, qualname, None)
            else:
                visit(child, scope, owner)

    visit(tree, [], None)
    return found


def none_defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The parameters of ``node`` whose default is the literal ``None``."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
             *zip(args.kwonlyargs, args.kw_defaults)]
    return [p.arg for p, d in pairs if isinstance(d, ast.Constant) and d.value is None]


class Tracer:
    """A ``sys.settrace`` hook over the functions ``files`` define."""

    def __init__(self, files: list[Path], root: Path = ROOT) -> None:
        self.defs = {
            (str(path), d.line, d.node.name): (d.key, none_defaulted(d.node))
            for path in files
            for d in definitions(path, ast.parse(path.read_text()), root)
        }
        self.entered: set[str] = set()
        self.nones: dict[str, bool] = {}  # key.param -> some call gave it None
        self._codes: dict = {}

    def hook(self, frame, event, arg):
        code = frame.f_code
        entry = self._codes.get(code, False)
        if entry is False:
            where = (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
            entry = self._codes[code] = self.defs.get(where)
            if entry:
                self.entered.add(entry[0])
        if entry:
            for param in entry[1]:
                name = f"{entry[0]}.{param}"
                self.nones[name] = self.nones.get(name, False) or frame.f_locals.get(param) is None
        return None


def _readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _traced() -> None:
    """One entry point, traced: ``argv`` is the output path, the mode and its words."""
    out, mode, *words = sys.argv[1:]
    tracer = Tracer(sorted(SRC.rglob("*.py")))

    def dump() -> None:
        sys.settrace(None)
        Path(out).write_text(json.dumps({"entered": sorted(tracer.entered), "nones": tracer.nones}))

    atexit.register(dump)
    sys.settrace(tracer.hook)
    if mode == "module":
        sys.argv = words
        runpy.run_module(words[0], run_name="__main__", alter_sys=True)
    elif mode == "path":
        sys.argv = words
        runpy.run_path(words[0], run_name="__main__")
    elif mode == "readme":
        namespace: dict = {}
        for block in _readme_blocks():
            exec(compile(block, "README.md", "exec"), namespace)
    else:
        from perf.workloads import WORKLOADS

        run = WORKLOADS[words[0]].build(0, False)
        run.run()
        run.digest()


def entry_points() -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every product entry point as ``(mode and words, exit codes it may give)``."""
    from benchmarks import BENCHMARKS
    from perf.workloads import WORKLOADS

    exports = [(("module", "benchmarks", key, "--export", os.devnull), (0,)) for key in BENCHMARKS]
    gates = [
        (("module", "pytest", "-q", "-p", "no:cacheprovider", f"benchmarks/{module}.py"), (0, 1))
        for module, _ in BENCHMARKS.values()
    ]
    examples = [(("path", f"examples/{p.name}"), (0,)) for p in sorted((ROOT / "examples").glob("*.py"))]
    rounds = [(("perf", name), (0,)) for name in WORKLOADS]
    return exports + gates + examples + [(("readme",), (0,))] + rounds


def _run(words: tuple[str, ...], out: Path) -> tuple[int, str, dict | None]:
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", "from tests.reach import _traced; _traced()", str(out), *words],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    result = json.loads(out.read_text()) if out.is_file() else None
    return done.returncode, done.stdout + done.stderr, result


def main() -> int:
    points = entry_points()
    entered: set[str] = set()
    nones: dict[str, bool] = {}
    failed = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = {
            pool.submit(_run, words, Path(scratch) / f"{i}.json"): (words, exits)
            for i, (words, exits) in enumerate(points)
        }
        for future in as_completed(runs):
            words, exits = runs[future]
            code, output, result = future.result()
            print(f"{time.perf_counter() - start:7.1f}s exit {code} {' '.join(words)}", file=sys.stderr)
            if code not in exits or result is None:
                failed.append(words)
                print(output[-4000:], file=sys.stderr)
                continue
            entered |= set(result["entered"])
            for name, given in result["nones"].items():
                nones[name] = nones.get(name, False) or given
    if failed:
        print(f"{len(failed)} entry points failed: {failed}", file=sys.stderr)
        return 1
    keys = [d.key for path in sorted(SRC.rglob("*.py")) for d in definitions(path, ast.parse(path.read_text()))]
    reach = {"functions": {key: key in entered for key in keys}, "none_params": nones}
    OUT.write_text(json.dumps(reach, indent=1, sort_keys=True) + "\n")
    print(f"{len(entered)} of {len(keys)} functions entered", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
