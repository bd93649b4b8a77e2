"""Command-line interface: verification suites, geometry artifacts, spectra, audit.

Grammar (q is i without --q; `-h`/`--help` prints it as one line on stdout):
    ncgq {verify,connection,curvature,dirac,audit} [--q generic|1|i|-i]
         [--format json|text] [--out PATH] [--tol X]
A flag is `--flag value` or `--flag=value`, in full (no abbreviations), and the
last of a repeated flag wins; a value may start with `-` (`--q -i`), not `--`.

Exit codes: 0 success, 1 mathematical failure (an eigensolver failure too, in
any command but `audit`, which reports it in the failing spectrum's row), 2
usage or configuration error (an unknown command or flag, a missing or
disallowed value), 3 fixture error: a fixture file that is missing, not JSON,
or not of its expected shape (a NaN or infinite number included), 4
output error: the --out file cannot be written, or exists and is not a regular
file.  Each error is one line on stderr, naming the token or file at fault.
JSON output is deterministic (sorted keys, fixed float formatting; `dirac`
lists its eigenvalues, each beside its match distance, in a canonical order,
equal ones by ascending distance); text output is human-oriented and
unstable.  Files are written atomically; a symlink is written through.
`audit --q generic` audits q = i; `audit --q 1` is a configuration error.

Only `verify` forks, at a root and before it compiles the exact half: the child
imports numpy, fixtures, dirac and sectors for the spectral half while this
process compiles and computes the exact one (see cmd_verify.alongside); the
bytes and exit codes are a sequential run's.  `audit` runs in one process.

Each command imports only what it runs, since a cold run compiles every module
it imports.  This dispatcher imports the command's handler, cmd_<command>,
which imports the rest: `dirac` fixtures, dirac and sectors, and no exact
arithmetic; the others scalars, constants, algebra, calculus and riemannian
instead, plus the exact linalg in `connection`, verification and structure in
`verify` (at a root also hopf, linalg, `pickle` and `signal`), and all but
verification in `audit`.  `connection`, `curvature` and `verify --q generic`
read no fixture and load no fixtures; only --out loads outfile.  None loads
argparse, fractions, decimal or dataclasses (tests/test_cli.py, TestColdImports).
"""
from __future__ import annotations

import json
import math
import sys

VALID_Q = ("generic", "1", "i", "-i")
ROOT_MODES = ("i", "-i")


class RunConfig:
    __slots__ = ("command", "qmode", "out", "format", "tol")

    def __init__(self, command: str, qmode: str, out: str | None = None,
                 format: str = "json", tol: float = 1e-3):
        self.command = command
        self.qmode = qmode
        self.out = out
        self.format = format
        self.tol = tol


class ConfigError(ValueError):
    kind = "configuration"


class OutputError(OSError):
    pass


def validate(cfg: RunConfig) -> None:
    if cfg.qmode not in VALID_Q:
        raise ConfigError(f"invalid q mode {cfg.qmode!r}; choose from {VALID_Q}")
    if cfg.format not in ("json", "text"):
        raise ConfigError(f"invalid format {cfg.format!r}")
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        raise ConfigError(f"invalid tolerance {cfg.tol!r}; it must be finite and >= 0")
    if cfg.command in ("connection", "curvature", "audit") and cfg.qmode == "1":
        raise ConfigError("q=1 is an extrapolated spectral mode only; "
                          "forms-level commands need generic, i or -i")
    if cfg.command == "dirac" and cfg.qmode == "generic":
        raise ConfigError("the spectral layer needs a concrete q mode (1, i or -i)")
    if cfg.command == "verify" and cfg.qmode == "1":
        raise ConfigError("verification suites run at generic, i or -i")


def emit(cfg: RunConfig, document: dict, text_lines: list[str]) -> None:
    if cfg.format == "json":
        payload = json.dumps(document, indent=1, sort_keys=True) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if cfg.out:
        from .outfile import write_atomically  # here: only a run with --out writes a file

        try:
            write_atomically(cfg.out, payload)
        except OSError as exc:
            # os.replace names its target second; mkdir names the blocking path
            where = exc.filename2 or exc.filename
            raise OutputError(f"cannot write {cfg.out}: {exc.strerror or exc}: {where}") from exc
    else:
        sys.stdout.write(payload)


COMMANDS = ("verify", "connection", "curvature", "dirac", "audit")
USAGE = ("usage: ncgq {verify,connection,curvature,dirac,audit} [--q generic|1|i|-i] "
         "[--format json|text] [--out PATH] [--tol X]")
OPTIONS = {"--q": "qmode", "--format": "format", "--out": "out", "--tol": "tol"}


class UsageError(ConfigError):
    kind = "usage"


def parse_args(argv: list[str]) -> RunConfig:
    """The run that argv asks for (see the module's grammar); a UsageError names the bad token."""
    if not argv or argv[0] not in COMMANDS:
        raise UsageError((f"unknown command {argv[0]!r}" if argv else "no command given")
                         + f"; choose from {', '.join(COMMANDS)}")
    values = {"command": argv[0], "qmode": "i"}
    rest = iter(argv[1:])
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag not in OPTIONS:
            raise UsageError(f"unknown argument {token!r}; the options are {', '.join(OPTIONS)}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"option {flag} needs a value" + (f", not {value!r}" if value else ""))
        if flag == "--tol":
            try:
                value = float(value)
            except ValueError:
                raise UsageError(f"option --tol needs a number, not {value!r}") from None
        elif flag == "--out" and not value:
            raise UsageError("option --out needs a value, not ''")
        values[OPTIONS[flag]] = value
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE + "\n")
        return 0
    try:
        cfg = parse_args(argv)
        validate(cfg)
        # each command's handler module, cmd_<command>, is imported by that command alone
        return __import__(f"{__package__}.cmd_{cfg.command}", fromlist=["run"]).run(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"{exc.kind} error: {exc}\n")
        return 2
    except OutputError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 4
    except Exception as exc:  # looked up, not imported: `connection` and `curvature` load neither module
        if _raised(exc, "fixtures", "FixtureError"):
            sys.stderr.write(f"fixture error: {exc}\n")
            return 3
        if _raised(exc, "dirac", "EigensolverError"):
            sys.stderr.write(f"eigensolver failure: {exc}\n")
            return 1
        raise


def _raised(exc: Exception, module: str, name: str) -> bool:
    """Whether exc is the named exception of an ncgq module, if that module is loaded at all."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(exc, getattr(loaded, name))


if __name__ == "__main__":  # `python -m ncgq.cli`: the package module's main catches the handlers' OutputError
    sys.exit(__import__(f"{__package__}.cli", fromlist=["main"]).main())
