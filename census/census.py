"""The runtime census: the functions of src/ncgq that no command run and no library pass calls.

    PYTHONPATH=src python3 census/census.py SCRATCH_DIR

In this one process, under a profile hook, it runs:

- every command at every q mode it accepts, in JSON and in text;
- --out to a file and to a directory;
- the usage and configuration errors, and --help;
- every command under a copy of the fixtures whose files are all truncated;
- one pass of perfbench/library.py, the library_mixed workload.

numpy is imported first, so `verify` computes its spectral half inline
instead of in a forked child, where no hook would see it.  SCRATCH_DIR receives
the --out files and the truncated fixtures.  The last line of standard output
is one JSON object: every run's arguments and exit code, and every function
that no run called, named `module.py:Qualified.name`.
"""
from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy  # noqa: F401  loaded first: `verify` then runs its spectral half in this process

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ncgq"

MODES = {"verify": ("generic", "i", "-i"), "connection": ("generic", "i", "-i"),
         "curvature": ("generic", "i", "-i"), "audit": ("generic", "i", "-i"),
         "dirac": ("1", "i", "-i")}
VALID = [[command, "--q", q, "--format", fmt] for command, modes in MODES.items()
         for q in modes for fmt in ("json", "text")]
ERRORS = [
    [], ["frobnicate"], ["dirac", "--frob", "1"], ["dirac", "--q"], ["dirac", "--tol", "abc"],
    ["dirac", "--out", ""], ["dirac", "--out="], ["verify", "--q", "2"], ["audit", "--q", "1"],
    ["dirac", "--q", "generic"], ["dirac", "--format", "xml"], ["dirac", "--tol", "nan"], ["--help"],
]


def functions() -> dict[tuple[str, int, str], str]:
    """Every def of the package: (file, first line, name) -> `module.py:Qualified.name`.

    The first line is that of the code object, the first decorator's if there is one.
    """
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = f"{path.name}:{qualname}"
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def run(main, argv: list[str]) -> dict:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "code": code}


def truncated_fixtures(scratch: Path) -> Path:
    """A copy of the fixture directory whose files each keep only their first half."""
    folder = scratch / "truncated"
    folder.mkdir(parents=True, exist_ok=True)
    for source in sorted((PACKAGE / "fixtures").glob("*.json")):
        data = source.read_bytes()
        (folder / source.name).write_bytes(data[: len(data) // 2])
    return folder


def library_pass() -> None:
    """One seed-1 pass of perfbench/library.py, loaded from its file as it stands."""
    sys.path.insert(0, str(REPO / "perfbench"))  # library imports perfbench's clock
    spec = importlib.util.spec_from_file_location("census_library", REPO / "perfbench" / "library.py")
    library = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(library)
    with redirect_stdout(io.StringIO()):
        library.main(["--seed", "1"])


def census(scratch: Path) -> dict:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from ncgq import fixtures
        from ncgq.cli import main

        runs = [run(main, argv) for argv in VALID + ERRORS]
        runs.append(run(main, ["connection", "--out", str(scratch / "out" / "connection.json")]))
        runs.append(run(main, ["dirac", "--q", "1", "--out", str(scratch)]))
        os.environ["NCGQ_FIXTURES"] = str(truncated_fixtures(scratch))
        try:
            for command in MODES:
                fixtures._read.cache_clear()
                runs.append(dict(run(main, [command]), fixtures="truncated"))
        finally:
            del os.environ["NCGQ_FIXTURES"]
            fixtures._read.cache_clear()
        library_pass()
    finally:
        sys.setprofile(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called}
    uncalled = sorted(name for key, name in functions().items() if key not in reached)
    return {"runs": runs, "uncalled": uncalled}


if __name__ == "__main__":
    print(json.dumps(census(Path(sys.argv[1]))))
