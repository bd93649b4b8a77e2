"""The ncgq benchmark: cold CLI sessions, a seeded library workload, outside-in layer timing.

Run it from the root of a checkout; it runs the program from ./src:

    python3 perfbench/run.py --workload cli_verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One closed-loop client runs one operation at a time, so at most one child
process exists at any moment, and every child gets a single BLAS thread.
With --trace 0 the end-to-end figures come from untraced runs, with times at
reference CPU speed (see clock.py); with --trace 1 every command (or library
pass) runs once untraced and once under perfbench/tracer.py, and the layer
figures come from the traced run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details: the
environment, the input digest, the figures as measured, per-command figures,
golden-record mismatches and every layer figure by name.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import clock
import golden
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
PYTHON = sys.executable
# one BLAS thread per child: the benchmark never runs more threads than cores
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ENV = {**os.environ, "PYTHONPATH": str(SRC), **BLAS_THREADS}
CLI_ENTRY = "import sys; from ncgq.cli import main; sys.exit(main())"
LIBRARY_SETUP = f"import sys; sys.path.insert(0, {str(HERE)!r}); import library; library.setup()"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# workload -> (commands of one pass, modules those commands import)
CLI_WORKLOADS = {
    "cli_verify": (("verify --q i", "verify --q -i"),
                   ("ncgq.cli", "ncgq.verification", "ncgq.dirac")),
    "cli_ledger": (tuple(f"{c} --q {q}" for c in ("audit", "connection", "curvature")
                         for q in ("i", "-i")),
                   ("ncgq.cli", "ncgq.audit", "ncgq.dirac")),
    "cli_spectra": (("dirac --q 1", "dirac --q i", "dirac --q -i"),
                    ("ncgq.cli", "ncgq.dirac")),
}
LIBRARY = "library_mixed"
WORKLOADS = (*CLI_WORKLOADS, LIBRARY)
IMPORT_GROUPS = ("ncgq", "numpy", "scipy")


@dataclass
class Proc:
    wall_s: float
    cpu_s: float  # user + sys of the child and of any children it waited for
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    slowdown: float  # CPU slowdown probed right before and after the child

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def _expire(signum, frame):
    raise TimeoutError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def run_process(argv: list[str], tmp: Path) -> Proc:
    """Run one child to completion; time it from spawn to reaping."""
    before = clock.probe()
    with open(tmp / "stderr", "w+b") as err:
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(CHILD_TIMEOUT_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, out, stderr, clock.slowdown(before + clock.probe()))


def run_cli(command: str, tmp: Path) -> Proc:
    """One cold `ncgq` session, entered the way the console script enters it."""
    return run_process([PYTHON, "-c", CLI_ENTRY, *command.split()], tmp)


def run_cli_traced(command: str, tmp: Path) -> tuple[Proc, dict]:
    out = tmp / "trace.json"
    out.unlink(missing_ok=True)
    proc = run_process([PYTHON, "-X", "importtime", str(HERE / "tracer.py"), str(out),
                        *command.split()], tmp)
    with open(out, encoding="utf-8") as fh:
        figures = json.load(fh)
    figures.update(import_times(proc.stderr))
    return proc, figures


@contextlib.contextmanager
def scratch_dir():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        yield Path(tmp)


def import_times(stderr: str) -> dict[str, float]:
    """Import self time from -X importtime, split between ncgq, numpy and scipy.

    A module counts toward its own top-level package when that is one of the
    three, and otherwise toward the nearest enclosing import that does, so a
    stdlib module first imported by numpy counts as numpy.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[0])))
    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    enclosing: list[tuple[int, str | None]] = []
    for indent, name, self_us in reversed(rows):  # parents precede children when reversed
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        top = name.split(".")[0]
        group = top if top in totals else (enclosing[-1][1] if enclosing else None)
        enclosing.append((indent, group))
        if group:
            totals[group] += self_us
    return {f"import.{g}_ms": us / 1e3 for g, us in totals.items()}


def setup_time(argv: list[str], tmp: Path) -> tuple[float, float]:
    """Median wall time from a cold interpreter to ready, at reference speed and
    as measured, after one untimed warm-up (which also writes the bytecode
    caches of a fresh checkout)."""
    procs = []
    for k in range(SETUP_SAMPLES + 1):
        proc = run_process(argv, tmp)
        if proc.code != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if k:
            procs.append(proc)
    return (statistics.median(p.ref_wall_s for p in procs),
            statistics.median(p.wall_s for p in procs))


def cli_label(command: str) -> str:
    name, _, q = command.split()
    return f"cli.{name}_{q}.wall_ms"


def is_time(figure: str) -> bool:
    return figure.endswith("_ms") or figure == "trace.overhead_ratio"


# -- one run of a workload ------------------------------------------------------------


class Run:
    """Operations attempted and failed, and the figures of each pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict[str, float]] = []
        self.setup = (0.0, 0.0)  # set-up time at reference speed, as measured
        self.detail: dict = {}

    def check(self, command: str, proc: Proc, records: dict) -> None:
        self.attempted += 1
        problem = golden.check(records[command], proc.code, proc.stdout)
        if problem:
            self.failures.append(f"{command}: {problem}")


def cli_measure(name: str, seed: int, seconds: float, tmp: Path) -> Run:
    commands, modules = CLI_WORKLOADS[name]
    records = golden.load()
    run = Run()
    run.setup = setup_time([PYTHON, "-c", "import " + ", ".join(modules)], tmp)
    rng = random.Random(seed)
    per_command: dict[str, list[float]] = {c: [] for c in commands}
    for _ in clock.passes_within(seconds):
        procs = []
        for command in rng.sample(commands, len(commands)):
            proc = run_cli(command, tmp)
            run.check(command, proc, records)
            per_command[command].append(proc.wall_s)
            procs.append(proc)
        run.passes.append({key: sum(getattr(p, key) for p in procs)
                           for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")})
        run.passes[-1].update(peak_rss_mb=max(p.rss_mb for p in procs), ops=len(procs))
    run.detail["command_wall_s"] = {c: statistics.median(v) for c, v in per_command.items()}
    return run


def cli_trace(name: str, seed: int, seconds: float, tmp: Path) -> Run:
    commands, _ = CLI_WORKLOADS[name]
    records = golden.load()
    run = Run()
    rng = random.Random(seed)
    for _ in clock.passes_within(seconds):
        totals: dict[str, float] = {}
        plain_wall = traced_wall = 0.0
        for command in rng.sample(commands, len(commands)):
            plain = run_cli(command, tmp)
            traced, figures = run_cli_traced(command, tmp)
            run.check(command, plain, records)
            run.check(command, traced, records)
            if (traced.code, traced.stdout) != (plain.code, plain.stdout):
                run.failures.append(f"{command}: traced output differs from untraced")
            plain_wall += plain.ref_wall_s
            traced_wall += traced.ref_wall_s
            for key, value in figures.items():
                totals[key] = totals.get(key, 0) + value
            totals[cli_label(command)] = plain.wall_s * 1e3
        totals["trace.overhead_ratio"] = traced_wall / plain_wall
        run.passes.append(tracer.derive(totals))
    return run


def _library_worker(args: list[str], tmp: Path, importtime: bool = False) -> tuple[Proc, dict]:
    argv = [PYTHON, *(["-X", "importtime"] if importtime else []), str(HERE / "library.py"), *args]
    proc = run_process(argv, tmp)
    if proc.code != 0:
        raise RuntimeError(f"library worker failed:\n{proc.stderr}")
    return proc, json.loads(proc.stdout.splitlines()[-1])


def library_measure(seed: int, seconds: float, tmp: Path) -> Run:
    run = Run()
    run.setup = setup_time([PYTHON, "-c", LIBRARY_SETUP], tmp)
    proc, doc = _library_worker(["--seed", str(seed), "--seconds", str(seconds)], tmp)
    for p in doc["passes"]:
        run.passes.append({**p, "peak_rss_mb": proc.rss_mb, "ops": doc["ops_per_pass"]})
    run.attempted = doc["ops_per_pass"] * len(doc["passes"])
    run.failures = [f"identity failed: {kind}" for kind in doc["failed"]]
    run.detail["inputs_digest"] = doc["inputs_digest"]
    return run


def library_trace(seed: int, seconds: float, tmp: Path) -> Run:
    run = Run()
    out = tmp / "trace.json"
    for _ in clock.passes_within(seconds):
        _, plain = _library_worker(["--seed", str(seed)], tmp)
        traced_proc, traced = _library_worker(["--seed", str(seed), "--trace", str(out)],
                                              tmp, importtime=True)
        with open(out, encoding="utf-8") as fh:
            figures = json.load(fh)
        figures.update(import_times(traced_proc.stderr))
        figures["trace.overhead_ratio"] = (traced["passes"][0]["ref_wall_s"]
                                           / plain["passes"][0]["ref_wall_s"])
        run.passes.append(tracer.derive(figures))
        for doc in (plain, traced):
            run.attempted += doc["ops_per_pass"]
            run.failures += [f"identity failed: {kind}" for kind in doc["failed"]]
        run.detail["inputs_digest"] = plain["inputs_digest"]
    return run


# -- results ------------------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, float]:
    """Times at reference speed; the same figures as measured go to the detail line."""
    def figures(prefix: str, setup: float) -> dict[str, float]:
        passes = run.passes
        return {
            "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
            "cpu_s": statistics.median(p[prefix + "cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": setup,
            "ops_per_s": sum(p["ops"] for p in passes) / sum(p[prefix + "wall_s"] for p in passes),
        }

    run.detail["as_measured"] = figures("", run.setup[1])
    run.detail["slowdown"] = statistics.median(
        p["wall_s"] / p["ref_wall_s"] for p in run.passes)
    return figures("ref_", run.setup[0])


def per_layer(run: Run) -> dict[str, float]:
    """Times as the median over passes; counts from the first pass, which every
    other pass must repeat exactly."""
    first = run.passes[0]
    out = {}
    for key in first:
        if is_time(key):
            out[key] = statistics.median(p[key] for p in run.passes)
        else:
            out[key] = first[key]
    run.detail["counts_repeat"] = all(
        p[key] == first[key] for p in run.passes for key in first if not is_time(key))
    return out


def environment() -> dict:
    from importlib import metadata

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one run of one workload."""
    e2e_units, layer_units = declared_metrics()
    with scratch_dir() as tmp:
        if name == LIBRARY:
            run = (library_trace if trace else library_measure)(seed, seconds, tmp)
        else:
            run = (cli_trace if trace else cli_measure)(name, seed, seconds, tmp)
    if trace:
        figures, units = per_layer(run), layer_units
        run.detail["layers"] = figures
    else:
        figures, units = end_to_end(run), e2e_units
    run.detail.update(workload=name, seed=seed, passes=len(run.passes),
                      failures=run.failures, error_rate=len(run.failures) / run.attempted,
                      environment=environment())
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": figures[m], "unit": unit} for m, unit in units.items()},
    }
    return result, run.detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ncgq benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncgq" / "cli.py").is_file():
        sys.stderr.write(f"no ncgq sources under {SRC}; run from the root of a checkout\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(json.dumps({"detail": detail}, sort_keys=True))
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:14s} {metric:44s} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:14s} {'error_rate':44s} {detail['error_rate']:>14.6g} ratio")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
