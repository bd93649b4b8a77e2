"""Outside-in tracing of ncgq: spans around public functions, counters on scalars.

The tracer changes no program code.  It installs an import hook that, right
after an ncgq module has executed, replaces the functions and methods named in
SPANS with wrappers that record a span (name, start, end, parent) in memory,
and the scalar operations named in COUNTERS with wrappers that only count,
because a timer on every Q(i) operation would swamp the work it measures.

A layer's self time is its spans' duration minus the time their child spans
cover; its total time sums only the outermost span of each recursion, so a
function that calls itself is not counted twice.

Run as a script, it traces one ncgq CLI command in this process and writes the
summary as JSON to OUT; the command's own output and exit code are unchanged:

    PYTHONPATH=src python3 perfbench/tracer.py OUT verify --q i
"""
from __future__ import annotations

import importlib.machinery
import json
import sys
import time
from array import array

# metric prefix -> (module, attribute path) of the function a span wraps
SPANS = {
    "algebra.element_mul": ("ncgq.algebra", "AlgebraElement.__mul__"),
    "algebra.tensor_mul": ("ncgq.algebra", "TensorElement.__mul__"),
    "algebra.coproduct": ("ncgq.algebra", "QuantumAlgebra.coproduct"),
    "algebra.antipode": ("ncgq.algebra", "QuantumAlgebra.antipode"),
    "calculus.wedge": ("ncgq.calculus", "Calculus.wedge"),
    "calculus.exterior_d": ("ncgq.calculus", "Calculus.exterior_d"),
    "calculus.commute_past": ("ncgq.calculus", "Calculus.commute_past"),
    "calculus.reduce_word": ("ncgq.calculus", "ExteriorAlgebra.reduce_word"),
    "calculus.pi_tilde_matrix": ("ncgq.calculus", "Calculus.pi_tilde_matrix"),
    "linalg.row_reduce": ("ncgq.linalg", "row_reduce"),
    "linalg.nullspace": ("ncgq.linalg", "nullspace"),
    "linalg.invert": ("ncgq.linalg", "invert"),
    "riemannian.assembler_build": ("ncgq.riemannian", "ConnectionAssembler.__init__"),
    "riemannian.connection_residuals": ("ncgq.riemannian", "connection_residuals"),
    "riemannian.covariant_derivative_basis": ("ncgq.riemannian", "covariant_derivative_basis"),
    # riemann() and riemann_basis() both reduce to this one curvature map
    "riemannian.riemann": ("ncgq.riemannian", "riemann_of_tensor"),
    "riemannian.regularity_check": ("ncgq.riemannian", "regularity_check"),
    "riemannian.rank_report": ("ncgq.riemannian", "ConnectionSystem.rank_report"),
    "dirac.build_dirac": ("ncgq.dirac", "build_dirac"),
    "dirac.eigenvalues": ("ncgq.dirac", "eigenvalues"),
    "dirac.compare_spectrum": ("ncgq.dirac", "compare_spectrum"),
    "fixtures.load": ("ncgq.fixtures", "_load"),
    "fixtures.translation_matrices": ("ncgq.fixtures", "printed_translation_matrices"),
    "audit.algebra": ("ncgq.audit", "audit_algebra"),
    "audit.calculus": ("ncgq.audit", "audit_calculus"),
    "audit.riemannian": ("ncgq.audit", "audit_riemannian"),
    "audit.dirac": ("ncgq.audit", "audit_dirac"),
    "verification.run_checks": ("ncgq.verification", "run_checks"),
    "cli.emit": ("ncgq.cli", "emit"),
}

# counter -> (module, class, methods); each call of any listed method counts once
COUNTERS = {
    "scalars.gaussian.mul.calls": ("ncgq.scalars", "GaussianRational", ("__mul__", "__rmul__")),
    "scalars.gaussian.add.calls": ("ncgq.scalars", "GaussianRational",
                                   ("__add__", "__radd__", "__sub__", "__rsub__")),
    "scalars.rf.evaluate_at.calls": ("ncgq.scalars", "RationalFunctionQ", ("evaluate_at",)),
}
# GaussianRational construction is counted separately, with its integer share
NEW_TARGET = ("ncgq.scalars", "GaussianRational")


class Tracer:
    """Span and counter store for one process; install() before importing ncgq."""

    def __init__(self):
        self.span_names = list(SPANS)
        self.kind = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth = [0] * len(self.span_names)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.new_calls = 0
        self.new_integers = 0
        self.words: set = set()
        self.pivots = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = {mod for mod, _ in SPANS.values()}
        targets |= {mod for mod, _, _ in COUNTERS.values()}
        sys.meta_path.insert(0, _PatchingFinder(self, targets))

    def patch(self, module) -> None:
        for nid, (name, (mod, path)) in enumerate(SPANS.items()):
            if mod == module.__name__:
                owner, attr = _resolve(module, path)
                setattr(owner, attr, self._span(nid, name, owner.__dict__[attr]))
        for key, (mod, cls, methods) in COUNTERS.items():
            if mod == module.__name__:
                owner = getattr(module, cls)
                for attr in methods:
                    setattr(owner, attr, self._counter(key, owner.__dict__[attr]))
        if module.__name__ == NEW_TARGET[0]:
            owner = getattr(module, NEW_TARGET[1])
            owner.__init__ = self._constructor(owner.__init__)

    # -- wrappers -----------------------------------------------------------

    def _span(self, nid: int, name: str, fn):
        kind, parent, outer, start, end = self.kind, self.parent, self.outer, self.start, self.end
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        observe = {"calculus.reduce_word": self._observe_word,
                   "linalg.row_reduce": self._observe_pivots}.get(name)

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_word(self, args, result) -> None:
        self.words.add(args[1])

    def _observe_pivots(self, args, result) -> None:
        self.pivots += len(result[1])

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _constructor(self, fn):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            tracer.new_calls += 1
            if obj.re.denominator == 1 and obj.im.denominator == 1:
                tracer.new_integers += 1

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Every layer figure by metric name: counts exactly, times in ms."""
        n = len(self.kind)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        names = self.span_names
        calls = [0] * len(names)
        total = [0.0] * len(names)
        self_time = [0.0] * len(names)
        for i in range(n):
            k = self.kind[i]
            dur = end[i] - start[i]
            calls[k] += 1
            self_time[k] += dur - child[i]
            if self.outer[i]:
                total[k] += dur
        out: dict[str, float] = {}
        for k, name in enumerate(names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_ms"] = total[k] * 1e3
            out[f"{name}.self_ms"] = self_time[k] * 1e3
        out.update(self.counts)
        out["scalars.gaussian.new.calls"] = self.new_calls
        out["scalars.gaussian.integers"] = self.new_integers
        out["calculus.reduce_word.distinct"] = len(self.words)
        out["linalg.row_reduce.pivots"] = self.pivots
        return out


class _PatchingFinder:
    """Meta-path finder that patches the target modules once they have executed."""

    def __init__(self, tracer: Tracer, targets: set[str]):
        self.tracer = tracer
        self.targets = targets

    def find_spec(self, name, path, target=None):
        if name not in self.targets:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _resolve(module, path: str):
    owner = module
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    return owner, attr


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Ratios computed from summed raw figures (sum raw figures before deriving)."""
    out = dict(raw)
    new = raw["scalars.gaussian.new.calls"]
    out["scalars.gaussian.integer_share"] = raw["scalars.gaussian.integers"] / new if new else 0.0
    words = raw["calculus.reduce_word.calls"]
    out["calculus.reduce_word.distinct_ratio"] = (
        raw["calculus.reduce_word.distinct"] / words if words else 0.0)
    out["riemannian.assembler_builds"] = raw["riemannian.assembler_build.calls"]
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from ncgq.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
