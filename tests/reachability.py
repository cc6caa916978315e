"""Count the functions of ``src/sovchain`` that a run never enters.

    PYTHONPATH=src python tests/reachability.py

Under a ``sys.setprofile`` hook that records every code object entered,
from before the package is imported, it runs ``run_pipelines`` on (1,2,1),
(2,2), (1,4) and (3,3,3) at model seed 0 with twists 1 and 0.6+0.8i, then
``sovchain generate``, ``check`` and ``run`` of the README quickstart in a
temporary directory.  A function never entered counts from its ``def`` line
to its last line.  Class bodies are not counted.  A nested function counts
unless its enclosing function was never entered, whose lines cover it.
Prints each function counted, then the totals.  Pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SHAPES = ((1, 2, 1), (2, 2), (1, 4), (3, 3, 3))
TWISTS = [[1.0, 0.0], [0.6, 0.8]]
QUICKSTART = (["generate", "--seed", "7", "--sites", "2", "--spins", "1", "2",
               "--out", "chain.json"], ["check", "chain.json"],
              ["run", "chain.json"])


def entered_during(work) -> set:
    """(file, first line) of every code object entered while work runs."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
    return {(str(Path(name).resolve()), line) for name, line in seen}


def run_everything() -> None:
    # Imported under the hook, so that what the import calls is entered.
    from sovchain.cli import RunConfig, main, run_pipelines

    for two_s in SHAPES:
        run_pipelines(RunConfig.from_dict({"model": {
            "two_s": list(two_s), "seed": 0, "kappa": TWISTS}}))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
            io.StringIO()):
        os.chdir(tmp)
        try:
            for argv in QUICKSTART:
                main(argv)
        finally:
            os.chdir(here)


def unentered(path: Path, seen: set) -> list:
    """(name, first line, line count) of every function of path counted."""
    out = []

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = f"{qualname}.{child.name}" if hasattr(child, "name") \
                else qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                if (str(path), first) not in seen:
                    out.append((name, child.lineno,
                                child.end_lineno - child.lineno + 1))
                    continue  # its lines cover every nested function
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return out


def main() -> None:
    seen = entered_during(run_everything)
    import sovchain

    src = Path(sovchain.__file__).resolve().parent
    rows = [row for path in sorted(src.glob("*.py"))
            for row in unentered(path, seen)]
    for name, line, count in rows:
        print(f"{count:5d}  {name} (line {line})")
    print(f"{len(rows)} functions, {sum(r[2] for r in rows)} lines "
          "never entered")


if __name__ == "__main__":
    main()
