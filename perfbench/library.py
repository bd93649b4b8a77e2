"""The library_mixed workload: seeded exact identities run in process on ncgq.

One pass runs a fixed plan of operations.  The plan fixes, for every
operation, its identity, its input density (number of nonzero coefficients
over the monomial basis), its q mode and whether it starts from a freshly built
context, so every seed does the same kind and amount of work.  The seed picks
which monomials and forms carry the coefficients, their values, which of them
are rationals with large denominators, and the order of the operations.

    PYTHONPATH=src python3 perfbench/library.py --seed 1 --seconds 10
    PYTHONPATH=src python3 perfbench/library.py --seed 1 --trace OUT

Without --seconds (or with --trace) it runs exactly one pass.  Each pass
records its wall and CPU time, as measured and at reference speed (see
perfbench/clock.py).

The last line of standard output is one JSON object describing the passes.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from fractions import Fraction

import clock

KINDS = ("product", "antipode", "wedge", "leibniz", "d_squared", "riemann")
DENSITIES = (1, 6, 11, 16)
REPEATS = 3  # independent inputs per (kind, density); more repeats, less cost spread between seeds
OP_PROBE_SAMPLES = 3
FRESH_DENSITY = 6  # one operation in four builds its own context
RATIONAL_SHARE = 4  # every fourth coefficient of an input is a large-denominator rational
FORMS = ("a", "b", "c", "d")
WORDS = {1: [(f,) for f in FORMS],
         2: [(x, y) for k, x in enumerate(FORMS) for y in FORMS[k + 1:]]}


def plan() -> list[dict]:
    """The seed-independent shape of one pass, in canonical order."""
    ops = []
    for kind in KINDS:
        for _ in range(REPEATS):
            for k, density in enumerate(DENSITIES):
                op = {"kind": kind, "density": density,
                      "mode": "i" if k % 2 == 0 else "-i", "fresh": density == FRESH_DENSITY}
                if kind == "leibniz":  # degree of the left factor
                    op["degree"] = k // 2
                elif kind == "d_squared":  # degree of the form
                    op["degree"] = 1 + k % 2
                ops.append(op)
    return ops


# -- seeded inputs, as plain data -------------------------------------------------


def _coefficient(rng: random.Random, rational: bool) -> list[int]:
    """[re_num, re_den, im_num, im_den] of a nonzero Gaussian rational."""
    if rational:
        return [rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6),
                rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)]
    while True:
        re, im = rng.randint(-9, 9), rng.randint(-9, 9)
        if re or im:
            return [re, 1, im, 1]


def _terms(rng: random.Random, slots: list, density: int) -> list:
    chosen = rng.sample(slots, density)
    n_rational = density // RATIONAL_SHARE
    return [[*slot, *_coefficient(rng, k < n_rational)] for k, slot in enumerate(chosen)]


def _element(rng: random.Random, density: int) -> list:
    return _terms(rng, [[p, r] for p in range(4) for r in range(4)], density)


def _form(rng: random.Random, degree: int, density: int) -> list:
    if degree == 0:
        return [[""] + t for t in _element(rng, density)]
    slots = [["".join(w), p, r] for w in WORDS[degree] for p in range(4) for r in range(4)]
    return _terms(rng, slots, density)


def generate(seed: int) -> list[dict]:
    """The inputs of one pass: the plan filled in and shuffled by the seed."""
    rng = random.Random(seed)
    ops = []
    for op in plan():
        d = op["density"]
        if op["kind"] == "product":
            args = [_element(rng, d) for _ in range(3)]
        elif op["kind"] == "antipode":
            args = [_element(rng, d)]
        elif op["kind"] == "wedge":
            args = [_form(rng, 1, d) for _ in range(3)]
        elif op["kind"] == "leibniz":
            args = [_form(rng, op["degree"], d), _form(rng, 1, d)]
        elif op["kind"] == "d_squared":
            args = [_form(rng, op["degree"], d)]
        else:  # riemann
            args = [_element(rng, d), rng.choice(FORMS)]
        ops.append({**op, "args": args})
    rng.shuffle(ops)
    return ops


def digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- running the identities on ncgq ---------------------------------------------------


class Context:
    """One q mode's algebra, calculus and (on first use) reference connection."""

    def __init__(self, mode: str):
        from ncgq.algebra import QuantumAlgebra
        from ncgq.calculus import Calculus

        self.alg = QuantumAlgebra(mode)
        self.cal = Calculus(self.alg)
        self._conn = None

    @property
    def conn(self):
        if self._conn is None:
            from ncgq.riemannian import reference_connection

            self._conn = reference_connection(self.cal)
        return self._conn

    def scalar(self, c: list[int]):
        from ncgq.scalars import GaussianRational

        return GaussianRational(Fraction(c[0], c[1]), Fraction(c[2], c[3]))

    def element(self, terms: list):
        return self.alg.element({(t[0], t[1]): self.scalar(t[2:]) for t in terms})

    def form(self, terms: list):
        from ncgq.calculus import DiffForm

        coeffs: dict = {}
        for word, p, r, *c in terms:
            coeffs.setdefault(tuple(word), {})[(p, r)] = self.scalar(c)
        return DiffForm(self.cal, {w: self.alg.element(m) for w, m in coeffs.items()})


def check(op: dict, ctx: Context) -> bool:
    """True when the operation's identity holds exactly."""
    kind, args = op["kind"], op["args"]
    cal = ctx.cal
    if kind == "product":
        x, y, z = (ctx.element(a) for a in args)
        return (x * y) * z == x * (y * z)
    if kind == "antipode":
        left, right = ctx.alg.antipode_axiom_defect(ctx.element(args[0]))
        return not left and not right
    if kind == "wedge":
        x, y, z = (ctx.form(a) for a in args)
        return cal.wedge(cal.wedge(x, y), z) == cal.wedge(x, cal.wedge(y, z))
    if kind == "leibniz":
        from ncgq.scalars import ONE

        x, y = ctx.form(args[0]), ctx.form(args[1])
        sign = ONE if op["degree"] % 2 == 0 else -ONE
        d = cal.exterior_d
        return d(cal.wedge(x, y)) == cal.wedge(d(x), y) + cal.wedge(x, d(y)).scale(sign)
    if kind == "d_squared":
        x = ctx.form(args[0])
        return not cal.exterior_d(cal.exterior_d(x))
    if kind == "riemann":
        from ncgq.calculus import DiffForm
        from ncgq.riemannian import riemann, riemann_basis

        f, i = ctx.element(args[0]), args[1]
        lhs = riemann(cal, ctx.conn, DiffForm(cal, {(i,): f}))
        return lhs == riemann_basis(cal, ctx.conn, i).left_multiply(f)
    raise ValueError(f"unknown operation kind {kind!r}")


def setup() -> dict[str, Context]:
    """Imports plus the q = i and q = -i contexts: what a pass needs to start."""
    import ncgq.riemannian  # noqa: F401  (used by the passes; its import is set-up)

    return {mode: Context(mode) for mode in ("i", "-i")}


def run_pass(ops: list[dict], contexts: dict[str, Context]) -> tuple[list[str], dict[str, float]]:
    """Run every operation once.

    Returns the kinds whose identity failed, and the pass's wall and CPU time,
    as measured and at reference speed.  Each operation is put at reference
    speed by probe runs taken right before and right after it.
    """
    failed = []
    totals = dict.fromkeys(("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s"), 0.0)
    before = clock.probe(OP_PROBE_SAMPLES)
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            ctx = Context(op["mode"]) if op["fresh"] else contexts[op["mode"]]
            if not check(op, ctx):
                failed.append(op["kind"])
        except Exception as exc:  # a defect in the program fails this operation only
            failed.append(f"{op['kind']}: {exc!r}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = clock.probe(OP_PROBE_SAMPLES)
        slowdown = clock.slowdown(before + after)
        before = after
        for key, value in (("wall_s", wall), ("cpu_s", cpu)):
            totals[key] += value
            totals["ref_" + key] += value / slowdown
    return failed, totals


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", default=None, help="trace one pass; write the summary here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    contexts = setup()
    ops = generate(args.seed)
    passes, failures = [], []
    for _ in clock.passes_within(0 if tracer else args.seconds):
        failed, figures = run_pass(ops, contexts)
        failures += failed
        passes.append(figures)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    print(json.dumps({
        "inputs_digest": digest(ops),
        "ops_per_pass": len(ops),
        "passes": passes,
        "failed": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
