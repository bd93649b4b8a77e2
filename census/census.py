"""The runtime census: the functions of src/ncgq that no command run and no library pass calls,
and the parameters that no valid run sets away from their defaults.

    PYTHONPATH=src python3 census/census.py SCRATCH_DIR

In this one process, under a profile hook, it runs:

- every command at every q mode it accepts, in JSON and in text, and `dirac` with --tol;
- --out to a file and to a directory;
- the usage and configuration errors, and --help;
- every command under a copy of the fixtures whose files are all truncated;
- one pass of perfbench/library.py, the library_mixed workload.

numpy is imported first, so `verify` computes its spectral half inline
instead of in a forked child, where no hook would see it.  SCRATCH_DIR receives
the --out files and the truncated fixtures.  The last line of standard output
is one JSON object: every run's arguments and exit code, every function that no
run called, named `module.py:Qualified.name`, and every parameter with a default
that no valid run (exit code 0 or 1, or the library pass) sets to another value,
named `module.py:Qualified.name(parameter)`, of the functions that some run calls.
It also counts the leaves of the fixture files that the runs parse, and names
each leaf whose value no run reads, by validation or by use, as `file.json/pointer`
(a JSON pointer, RFC 6901): the fixture loader's json.load hands out documents
that record each value taken from them.
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
from types import SimpleNamespace

import numpy  # noqa: F401  loaded first: `verify` then runs its spectral half in this process

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ncgq"

MODES = {"verify": ("generic", "i", "-i"), "connection": ("generic", "i", "-i"),
         "curvature": ("generic", "i", "-i"), "audit": ("generic", "i", "-i"),
         "dirac": ("1", "i", "-i")}
VALID = [[command, "--q", q, "--format", fmt] for command, modes in MODES.items()
         for q in modes for fmt in ("json", "text")]
VALID.append(["dirac", "--q", "i", "--tol", "0.5"])  # the q = i list's 0.2864 is within it: exit 0
ERRORS = [
    [], ["frobnicate"], ["dirac", "--frob", "1"], ["dirac", "--q"], ["dirac", "--tol", "abc"],
    ["dirac", "--out", ""], ["dirac", "--out="], ["verify", "--q", "2"], ["audit", "--q", "1"],
    ["dirac", "--q", "generic"], ["dirac", "--format", "xml"], ["dirac", "--tol", "nan"], ["--help"],
]


def functions() -> dict[tuple[str, int, str], tuple[str, list]]:
    """Every def of the package: (file, first line, name) -> (`module.py:Qualified.name`, defaults).

    The first line is that of the code object, the first decorator's if there is one.  The defaults
    are [(parameter, default expression)] for each parameter that has one.
    """
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                args = child.args
                positional = args.posonlyargs + args.args
                defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                defaults += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found[(str(path), first, child.name)] = (f"{path.name}:{qualname}",
                                                         [(a.arg, d) for a, d in defaults])
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


def child(pointer: str, key) -> str:
    """The JSON pointer of member key of the value at pointer."""
    return f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"


class ReadObject(dict):
    """A JSON object that adds to `read` the pointer of each value taken from it.

    Only the ways the fixture loader takes values are recorded: a value taken another way goes
    unrecorded, so its leaves show as unread and the census fails until this records that way."""

    def __init__(self, items, pointer: str, read: set):
        super().__init__(items)
        self.pointer, self.read = pointer, read

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.read.add(child(self.pointer, key))
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default

    def items(self):
        self.read.update(child(self.pointer, key) for key in self)
        return super().items()


class ReadArray(list):
    """A JSON array that adds to `read` the pointer of each value taken from it."""

    def __init__(self, items, pointer: str, read: set):
        super().__init__(items)
        self.pointer, self.read = pointer, read

    def __getitem__(self, index: int):
        value = super().__getitem__(index)
        self.read.add(child(self.pointer, range(len(self))[index]))  # a negative index counts from the end
        return value

    def __iter__(self):
        for i, value in enumerate(super().__iter__()):
            self.read.add(child(self.pointer, i))
            yield value


def recording(doc, pointer: str, read: set, leaves: set):
    """doc, a parsed JSON value, with each object and array in it read-recording; adds to leaves the
    pointer of each of its leaves, the values that are not a non-empty object or array."""
    if isinstance(doc, dict) and doc:
        return ReadObject({key: recording(value, child(pointer, key), read, leaves) for key, value in doc.items()},
                          pointer, read)
    if isinstance(doc, list) and doc:
        return ReadArray([recording(value, child(pointer, i), read, leaves) for i, value in enumerate(doc)],
                         pointer, read)
    leaves.add(pointer)
    return doc


def same(value, default) -> bool:
    """Whether a parameter holds its default: the object itself, or an equal one of its type."""
    try:
        return value is default or (type(value) is type(default) and bool(value == default))
    except Exception:  # an == that is not a truth value
        return False


def census(scratch: Path) -> dict:
    found, resolved = functions(), {}
    called = set()
    # code -> {parameter: default} of its defaulted parameters that no valid run has set yet
    unset: dict = {}
    set_now: set = set()  # (code, parameter) set by the run in progress
    read, leaves = set(), set()  # pointers of the fixture values taken, and of every fixture leaf

    def load(fh):
        return recording(json.load(fh), os.path.basename(fh.name), read, leaves)

    def defaults(frame) -> dict:
        code = frame.f_code
        path = resolved.get(code.co_filename) or resolved.setdefault(
            code.co_filename, str(Path(code.co_filename).resolve()))
        _, exprs = found.get((path, code.co_firstlineno, code.co_name), (None, []))
        return {name: eval(compile(ast.Expression(expr), path, "eval"), frame.f_globals) for name, expr in exprs}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            params = unset.get(code)
            if params is None:
                params = unset[code] = defaults(frame)
            if params:
                values = frame.f_locals
                for name, default in params.items():
                    if (code, name) not in set_now and not same(values[name], default):
                        set_now.add((code, name))

    def counted(outcome: dict) -> dict:
        """outcome, after the parameters that its run set leave `unset` if it was a valid run."""
        if outcome["code"] in (0, 1):
            for code, name in set_now:
                unset[code].pop(name, None)
        set_now.clear()
        return outcome

    sys.setprofile(hook)
    try:
        from ncgq import fixtures
        from ncgq.cli import main

        fixtures.json = SimpleNamespace(load=load)

        runs = [counted(run(main, argv)) for argv in VALID + ERRORS]
        runs.append(counted(run(main, ["connection", "--out", str(scratch / "out" / "connection.json")])))
        runs.append(counted(run(main, ["dirac", "--q", "1", "--out", str(scratch)])))
        os.environ["NCGQ_FIXTURES"] = str(truncated_fixtures(scratch))
        try:
            for command in MODES:
                fixtures._read.cache_clear()
                runs.append(dict(counted(run(main, [command])), fixtures="truncated"))
        finally:
            del os.environ["NCGQ_FIXTURES"]
            fixtures._read.cache_clear()
        library_pass()
        counted({"code": 0})  # the library pass counts as a valid run
    finally:
        sys.setprofile(None)
    reached = {(resolved[c.co_filename], c.co_firstlineno, c.co_name) for c in called}
    uncalled = sorted(name for key, (name, _) in found.items() if key not in reached)
    unvaried = sorted(f"{found[resolved[code.co_filename], code.co_firstlineno, code.co_name][0]}({name})"
                      for code, params in unset.items() for name in params)
    return {"runs": runs, "uncalled": uncalled, "unvaried": unvaried,
            "fixture_leaves": len(leaves), "unread_fixture_leaves": sorted(leaves - read)}


if __name__ == "__main__":
    print(json.dumps(census(Path(sys.argv[1]))))
