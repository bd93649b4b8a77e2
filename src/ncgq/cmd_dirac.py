"""`ncgq dirac`: the certified Dirac spectrum at one q, matched against the reference list."""
from __future__ import annotations

from .cli import emit
from .dirac import spectrum_pipeline


def run(cfg) -> int:
    dm, spec, report = spectrum_pipeline(cfg.qmode)
    # the solver's order follows its choice of basis, so emit a canonical one: by real, then
    # imaginary part at 9 decimals, then by the full values, then, as equal eigenvalues may be
    # matched either way round, by match distance
    lam, dist = spec.eigenvalues, report.distances
    order = sorted(range(len(lam)), key=lambda k: (round(lam[k].real, 9), round(lam[k].imag, 9),
                                                   lam[k].real, lam[k].imag, dist[k]))
    eigs = [lam[k] for k in order]
    doc = {
        "q": cfg.qmode,
        "normalization": "unnormalized",
        "extrapolated": cfg.qmode == "1",
        "eigenvalues": [[z.real, z.imag] for z in eigs],
        "max_residual": spec.max_residual(),  # the largest certified radius, a residual bound
        "reference": "paper-prop4",
        "max_match_distance": report.max_distance,
        "mean_match_distance": report.mean_distance,
        "match_distances": [dist[k] for k in order],
        "connection_scalars": {str(k): [v.real, v.imag] for k, v in dm.scalars.items()},
    }
    lines = [f"Dirac spectrum (q = {cfg.qmode}, unnormalized"
             f"{', extrapolated' if cfg.qmode == '1' else ''})"]
    for z in eigs:
        lines.append(f"  {z.real:+.6f} {z.imag:+.6f}i")
    lines.append(f"max match distance vs reference list: {report.max_distance:.3g}")
    emit(cfg, doc, lines)
    return 1 if report.max_distance > cfg.tol else 0
