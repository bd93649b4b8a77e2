"""`ncgq verify`: the exact checks and, at a root, the spectral checks, computed side by side."""
from __future__ import annotations

import contextlib
import os
import sys

from .cli import ROOT_MODES, emit
from .verification import exact_checks, spectral_checks

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def alongside(compute):
    """Yield a function that returns compute(), which a forked child computes meanwhile.

    Only `verify` uses it, until numpy leaves its spectral half (the golden records
    pin the dense solver's LAPACK residual digits).  This module and verification
    import no exact arithmetic at their top, and the spectral half reads none, so
    the child forks before any compiles and never compiles scalars or constants.
    Cold `verify --q i`, 2 vCPUs, no bytecode caches, medians of 61 runs, ms from the
    first line: fork at 13, child done at 114, exact half at 137 (with scalars and
    constants compiled before the fork: 22, 126 and 135).  `audit` runs inline.

    The child forks only when the platform has fork and numpy is not loaded yet, so
    the parent holds no BLAS threads that a fork would copy; otherwise compute()
    runs inline when its value is asked for.  The child asks for one BLAS thread
    unless the caller's environment sets a count: the parent keeps the other core
    busy, and starting a thread pool only slows the child's numpy import.  The child
    pickles the value into a pipe and always leaves through os._exit, so it writes
    no output and runs no exit handler.  If it does not exit 0, the value is
    computed inline, so every exception and message is that of the inline run.  A
    child whose value was not asked for when the block ends (the caller raised) is
    killed, and every child is reaped.
    """
    if not hasattr(os, "fork") or "numpy" in sys.modules:
        yield compute
        return
    import pickle  # here, not at the top: `verify --q generic` never forks
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


def run(cfg) -> int:
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
