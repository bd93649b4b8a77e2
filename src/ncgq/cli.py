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
lists its eigenvalues in a canonical order, not the solver's); text output is
human-oriented and unstable.  Files are written atomically; a symlink is
written through.  `audit --q generic` audits q = i; `audit --q 1` is a
configuration error.

Only `verify` forks: at a root it computes its spectral half, which imports
numpy for the dense solver, in a child while this process computes the exact
half, when the platform has fork and numpy is not loaded yet (see
`alongside`); the bytes and exit codes are those of a sequential run.  `audit`
runs in one process, its four sections on one calculus.

Each command imports only what it runs, since a cold run pays for every module
it imports: `dirac` the scalars, constants, fixtures, dirac and sectors modules,
the others algebra, calculus and riemannian instead of the last two, `verify`
and `audit` verification too, all but `curvature` and `verify --q generic` the
exact linalg, and only `verify` at a root `pickle` and `signal`.  None loads
argparse, fractions, decimal or dataclasses (tests/test_cli.py, TestColdImports).
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import sys

from .scalars import format_gaussian

VALID_Q = ("generic", "1", "i", "-i")
ROOT_MODES = ("i", "-i")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _atomic_write(path: str, text: str) -> None:
    """Replace the file at path, or a symlink's resolved target, by renaming a temporary file over it.

    An existing target that is not a regular file is refused.  A new file gets
    mode 0o666 less the umask; a replaced file keeps its mode.
    """
    import stat
    import tempfile

    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        os.umask(umask := os.umask(0))  # reading the umask sets it
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            raise OSError(0, "not a regular file", target)
    folder = os.path.dirname(target)
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=".ncgq-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(cfg: RunConfig, document: dict, text_lines: list[str]) -> None:
    if cfg.format == "json":
        payload = json.dumps(document, indent=1, sort_keys=True) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if cfg.out:
        try:
            _atomic_write(cfg.out, payload)
        except OSError as exc:
            # os.replace names its target second; mkdir names the blocking path
            where = exc.filename2 or exc.filename
            raise OutputError(f"cannot write {cfg.out}: {exc.strerror or exc}: {where}") from exc
    else:
        sys.stdout.write(payload)


@contextlib.contextmanager
def alongside(compute):
    """Yield a function that returns compute(), which a forked child computes meanwhile.

    Only `verify` uses it: its spectral half imports numpy (about 60 ms) for the
    dense solver whose LAPACK residual digits the golden records pin, and the
    child hides that behind the exact half (25 % less wall time and 6.5 % less
    peak memory, cold).  `audit` runs inline, its Dirac rows on its calculus.

    The child forks only when the platform has fork and numpy is not loaded
    yet, so the parent holds no BLAS threads that a fork would copy; otherwise
    compute() runs inline when its value is asked for.  The child asks for one
    BLAS thread unless the caller's environment sets a count: the parent keeps
    the other core busy, and starting a thread pool only slows the child's
    numpy import.  The child pickles the value into a pipe and always leaves
    through os._exit, so it writes no output and runs no exit handler.  If it
    does not exit 0, the value is computed inline, so every exception and
    message is that of the inline run.  A child whose value was not asked for
    when the block ends (the caller raised) is killed, and every child is
    reaped.
    """
    if not hasattr(os, "fork") or "numpy" in sys.modules:
        yield compute
        return
    import pickle  # here, not at the top: the commands that never fork load neither
    import signal

    rfd, wfd = os.pipe()
    # an interrupt before the child resets its handler would raise into the caller's code
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:  # no process to spare: compute inline
        pid = None
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(rfd)
            for var in BLAS_THREAD_VARIABLES:
                os.environ.setdefault(var, "1")
            with open(wfd, "wb") as pipe:
                pickle.dump(compute(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    reader = open(rfd, "rb")

    def join():
        data = reader.read()
        _, status = os.waitpid(pid, 0)
        return pickle.loads(data) if status == 0 else compute()

    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield join if pid else compute
    finally:
        reader.close()
        with contextlib.suppress(ChildProcessError):  # raised once join has reaped it
            if pid and os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# -- commands -----------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    from .verification import exact_checks, spectral_checks

    if cfg.qmode == "generic":
        results = [r for mode in ROOT_MODES for r in exact_checks(mode, forms_level_only=True)]
    else:
        with alongside(lambda: spectral_checks(cfg.qmode)) as spectral:
            results = exact_checks(cfg.qmode) + spectral()
    n_fail = sum(1 for r in results if not r["passed"])
    doc = {
        "command": "verify",
        "q": cfg.qmode,
        "checks": results,
        "passed": n_fail == 0,
    }
    lines = [f"verification suite (q = {cfg.qmode})", "-" * 44]
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        lines.append(f"[{status}] {r['mode']}: {r['name']}  {r.get('detail','')}")
    lines.append("-" * 44)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    emit(cfg, doc, lines)
    return 0 if n_fail == 0 else 1


def _calculus(mode: str):
    from .algebra import QuantumAlgebra
    from .calculus import Calculus

    return Calculus(QuantumAlgebra(mode))


def cmd_connection(cfg: RunConfig) -> int:
    from .riemannian import ConnectionAssembler, connection_residuals, reference_connection

    modes = ROOT_MODES if cfg.qmode == "generic" else (cfg.qmode,)
    docs = {}
    for mode in modes:
        cal = _calculus(mode)
        system = ConnectionAssembler(cal).assemble()
        report = system.rank_report()
        conn = reference_connection(cal)
        res = connection_residuals(system, conn)
        docs[mode] = {
            "system": report,
            "solver": {
                "status": "inconsistent" if not report["consistent"] else "solved",
                "rank": report["rank"],
                "n_unknowns": report["n_unknowns"],
            },
            "connection": {
                f"{i} {j}": format_gaussian(conn.coefficients[(i, j)])
                for (i, j) in sorted(conn.coefficients)
            },
            "connection_source": conn.source,
            "torsion_free": not any(res["torsion"].values()),
            "cotorsion_free": not any(res["cotorsion"].values()),
            "nonzero_torsion_rows": sum(1 for v in res["torsion"].values() if v),
            "nonzero_cotorsion_rows": sum(1 for v in res["cotorsion"].values() if v),
        }
    doc = {"command": "connection", "q": cfg.qmode, "results": docs}
    lines = [f"spin connection (q = {cfg.qmode})"]
    for mode, d in docs.items():
        lines.append(f"mode {mode}: system rank {d['system']['rank']}"
                     f"/{d['system']['n_unknowns']}, consistent: {d['system']['consistent']}")
        for key, val in d["connection"].items():
            lines.append(f"  A_{key.split()[0]}^{key.split()[1]} = {val}")
    emit(cfg, doc, lines)
    return 0


def cmd_curvature(cfg: RunConfig) -> int:
    from .calculus import FORMS
    from .riemannian import (covariant_derivative_basis, reference_connection,
                             riemann_basis)

    modes = ROOT_MODES if cfg.qmode == "generic" else (cfg.qmode,)
    docs = {}
    for mode in modes:
        cal = _calculus(mode)
        conn = reference_connection(cal)
        nabla = {}
        riem = {}
        for i in FORMS:
            nd = covariant_derivative_basis(cal, conn, i)
            nabla[i] = {k: str(x) for k, x in nd.terms.items()}
            rd = riemann_basis(cal, conn, i)
            riem[i] = {k: str(x) for k, x in rd.terms.items()}
        docs[mode] = {"covariant_derivative": nabla, "riemann": riem,
                      "connection_source": conn.source}
    doc = {"command": "curvature", "q": cfg.qmode, "results": docs}
    lines = [f"curvature (q = {cfg.qmode})"]
    for mode, d in docs.items():
        for i, legs in d["riemann"].items():
            lines.append(f"mode {mode}: Riemann(e_{i}):")
            for k, x in legs.items():
                lines.append(f"    [{x}] (x) e_{k}")
    emit(cfg, doc, lines)
    return 0


def cmd_dirac(cfg: RunConfig) -> int:
    from .dirac import spectrum_pipeline

    dm, spec, report = spectrum_pipeline(cfg.qmode)
    # the solver's order follows its choice of basis, so emit a canonical one:
    # by real, then imaginary part at 9 decimals, then by the full values
    lam = spec.eigenvalues
    order = sorted(range(len(lam)), key=lambda k: (round(lam[k].real, 9), round(lam[k].imag, 9),
                                                   lam[k].real, lam[k].imag))
    eigs = [lam[k] for k in order]
    doc = {
        "q": cfg.qmode,
        "normalization": "unnormalized",
        "extrapolated": dm.extrapolated,
        "eigenvalues": [[z.real, z.imag] for z in eigs],
        "max_residual": spec.max_residual(),  # the largest certified radius, a residual bound
        "reference": "paper-prop4",
        "max_match_distance": report.max_distance,
        "mean_match_distance": report.mean_distance,
        "match_distances": [report.distances[k] for k in order],
        "connection_scalars": {str(k): [v.real, v.imag] for k, v in dm.scalars.items()},
    }
    lines = [f"Dirac spectrum (q = {cfg.qmode}, unnormalized"
             f"{', extrapolated' if dm.extrapolated else ''})"]
    for z in eigs:
        lines.append(f"  {z.real:+.6f} {z.imag:+.6f}i")
    lines.append(f"max match distance vs reference list: {report.max_distance:.3g}")
    emit(cfg, doc, lines)
    return 1 if report.max_distance > cfg.tol else 0


def cmd_audit(cfg: RunConfig) -> int:
    from .audit import audit_report

    doc = audit_report(cfg.qmode)
    lines = [f"consistency audit (q = {doc['q_mode']})", "-" * 60]
    for row in doc["rows"]:
        lines.append(f"[{row['verdict']:>11s}] {row['section']}: {row['quantity']}")
        lines.append(f"   printed:  {row['printed']}")
        lines.append(f"   computed: {row['computed']}")
    lines.append("-" * 60)
    lines.append(str(doc["summary"]))
    emit(cfg, doc, lines)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "connection": cmd_connection,
    "curvature": cmd_curvature,
    "dirac": cmd_dirac,
    "audit": cmd_audit,
}


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
        values[OPTIONS[flag]] = value
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE + "\n")
        return 0
    from .fixtures import FixtureError

    try:
        cfg = parse_args(argv)
        validate(cfg)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"{exc.kind} error: {exc}\n")
        return 2
    except FixtureError as exc:
        sys.stderr.write(f"fixture error: {exc}\n")
        return 3
    except OutputError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 4
    except RuntimeError as exc:  # dirac is looked up, not imported: most commands never load it
        dirac = sys.modules.get(f"{__package__}.dirac")
        if dirac is None or not isinstance(exc, dirac.EigensolverError):
            raise
        sys.stderr.write(f"eigensolver failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
