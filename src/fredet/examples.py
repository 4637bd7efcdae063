"""Reproductions of the four worked determinant experiments.

Each run_example writes convergence CSVs, value tables, and a summary JSON
into outdir, and returns the summary as a dict.  References follow the
det_p(I - zK) orientation, so the internal evaluation point is -z.
"""

import csv
import json
import os
from functools import partial

import numpy as np

from .determinants import det_from_eigs, det_p, prepare
from .discretize import assemble
from .kernels import registry
from .linalg import eigenvalues, trace_powers
from .references import REFERENCES
from .spectra import fit_order, locate_eigs

EXAMPLE_IDS = (1, 2, 3, 4)
SLOPE_FLOOR = 1e-14  # errors up to this times max(1, |reference|) are rounding


def write_csv(dest, header, rows):
    """RFC-4180-style CSV with 17 significant digits for floats.

    dest is a path, or an open text stream that is written to and left open.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, rows)
        return
    w = csv.writer(dest)
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _json_ready(obj):
    """obj with every numpy scalar as the Python number it holds, and every NaN or
    infinite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def dump_json(obj) -> str:
    """The JSON text of every summary and payload: sorted keys, indent 2, final newline.

    Non-finite floats are written as null, so the text is strict (RFC 8259) JSON.
    """
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_summary(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(summary))


# the fields of an EigenEstimate, as CSV columns and as JSON keys
ROOT_CSV_HEADER = ["z_root_re", "z_root_im", "lam_re", "lam_im", "mult_estimate", "residual",
                   "step"]
ROOT_JSON_KEYS = ("z_re", "z_im", "lam_re", "lam_im", "mult_estimate", "residual", "step")


def root_row(e):
    return (e.z_root.real, e.z_root.imag, e.lam.real, e.lam.imag, e.mult_estimate, e.residual,
            e.step)


def roots_json(ests):
    return [dict(zip(ROOT_JSON_KEYS, root_row(e))) for e in ests]


def resolved_slope(ns, errs, ref):
    """fit_order's slope on the errors above SLOPE_FLOOR * max(1, |ref|) for the
    reference value ref, or None when fewer than 4 are: rounding has no order."""
    kept = [(n, e) for n, e in zip(ns, errs) if e > SLOPE_FLOOR * max(1.0, abs(ref))]
    return fit_order(*zip(*kept)).slope if len(kept) >= 4 else None


def _convergence(out, ns, curves):
    """Write example<id>_convergence.csv from curves (scheme, z, reference at z, errs
    over ns); return their resolved_slope."""
    write_csv(out("convergence.csv"), ["scheme", "z_re", "z_im", "n", "abs_err"],
              [(scheme, float(np.real(z)), float(np.imag(z)), n, e)
               for scheme, z, _, errs in curves for n, e in zip(ns, errs)])
    return {f"{scheme}@z={z:.6g}": resolved_slope(ns, errs, ref)
            for scheme, z, ref, errs in curves}


def run_example(example_id: int, outdir: str) -> dict:
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"example_id must be one of {EXAMPLE_IDS}, got {example_id}")
    os.makedirs(outdir, exist_ok=True)
    out = lambda name: os.path.join(outdir, f"example{example_id}_{name}")
    config, slopes, ests, residuals = _BUILDERS[example_id](out)
    write_csv(out("eigs.csv"), ROOT_CSV_HEADER, map(root_row, ests))
    summary = {"command": "example", "config": {"example": example_id, **config},
               "slopes": slopes, "roots": roots_json(ests), "residuals": residuals}
    write_summary(out("summary.json"), summary)
    return summary


# kernel, convergence curves as (scheme, z) against the kernel's REFERENCES entry,
# and the disc (centre, radius) searched for roots on the N = 128 Gauss-Legendre matrix
_SMOOTH_EXAMPLES = {
    # Green kernel on [0, 1]: simple eigenvalues 1/(n pi)^2, d(z) = sin(sqrt z)/sqrt z
    1: ("green", [("ngl", np.pi**2), ("ngl", 1.0), ("ncc", np.pi**2), ("ncc", 1.0)],
        (50.0, 49.0)),
    # periodic Bernoulli kernel: double eigenvalues 1/(2n pi)^2, d(z) = (2-2cos sqrt z)/z;
    # the N = 128 matrix splits the first double into two close roots, 39.46450 and 39.46646
    2: ("bernoulli", [("ngl", 4 * np.pi**2), ("ngl", 1.0), ("ncc", 1.0)], (4 * np.pi**2, 10.0)),
}


def _smooth_example(table_row, out):
    kernel, curves, (center, radius) = table_row
    spec, ref = registry(kernel), REFERENCES[kernel][0]
    ns = [10, 20, 40, 80, 160, 320]
    schemes = list(dict.fromkeys(s for s, _ in curves))
    # one assembly per (scheme, n), shared by every z of that scheme
    ops = {scheme: [assemble(spec, scheme, n) for n in ns] for scheme in schemes}
    slopes = _convergence(out, ns, [
        (scheme, z, ref(z), [abs(det_p(op, 1, -z).value - ref(z)) for op in ops[scheme]])
        for scheme, z in curves])

    ests = locate_eigs(assemble(spec, "ngl", 128), 1, center, radius)

    config = {"kernel": kernel, "schemes": schemes,
              "n_values": ns, "p": 1, "sign": -1,
              "z_points": [[z, 0.0] for z in dict.fromkeys(z for _, z in curves)]}
    return config, slopes, ests, {}


def _example3(out):
    # antisymmetric jump kernel, rectangle rule with zeroed diagonal, p = 2
    spec, ref = registry("sign"), REFERENCES["sign"][0]
    ns = [25, 50, 100, 200, 400]
    grid = [complex(re, im) for re in np.linspace(-1.0, 1.0, 9) for im in np.linspace(-1.0, 1.0, 9)]
    grid_ref = [ref(z) for z in grid]

    surface, prepared = [], {}
    curves = [("rect", z, ref(z), []) for z in (1j * np.pi / 4, 1.0)]
    zs = -np.array(grid + [z for _, z, _, _ in curves])
    for n in ns:
        # one reduction per n serves the grid, the curves and, at n = 200, locate_eigs
        prep = prepared[n] = prepare(assemble(spec, "rect", n, zero_diag=True))
        vals = prep.values(2, zs)
        # the values at the last, largest n are also the example3_grid.csv table
        grid_vals = vals[:len(grid)]
        surface.append(max(abs(v - r) for v, r in zip(grid_vals, grid_ref)))
        for (_, _, r, errs), v in zip(curves, vals[len(grid):]):
            errs.append(abs(v - r))
    write_csv(out("surface.csv"), ["n", "max_abs_err"], list(zip(ns, surface)))
    slopes = {"surface": fit_order(ns, surface).slope, **_convergence(out, ns, curves)}

    write_csv(out("grid.csv"),
              ["z_re", "z_im", "value_re", "value_im", "ref_re", "ref_im", "abs_err"],
              [(z.real, z.imag, v.real, v.imag, r.real, r.imag, abs(v - r))
               for z, v, r in zip(grid, grid_vals, grid_ref)])

    tr2 = trace_powers(prepared[400].matrix, 2)[1].real
    ests = locate_eigs(prepared[200], 2, 0.0, 1.2)

    config = {"kernel": "sign", "schemes": ["rect"], "zero_diag": True,
              "n_values": ns, "p": 2, "sign": -1, "grid": [-1.0, 1.0, -1.0, 1.0, 9]}
    residuals = {"trace_k2_at_400": abs(tr2 - (-4.0)), "trace_k2_value": tr2}
    return config, slopes, ests, residuals


def _pair_tail_bound(tail, z):
    """Bound on |P_kept / P - 1| when the det_3 pair drops the eigenvalues `tail`.

    det_3(I - zK) det_3(I + zK) = prod_n E_2(z^2 l_n^2) with E_2(u) = (1 - u) e^u,
    and |log E_2(u)| <= |u|^2 / (2 (1 - |u|)) for |u| < 1, so the dropped
    factors move the pair by a relative amount of at most expm1(tau),
    tau = sum |z l|^4 / (2 (1 - |z l|^2)).  Infinite where some |z l| >= 1.
    """
    u = np.abs(z * np.asarray(tail)) ** 2
    if np.any(u >= 1.0):
        return float("inf")
    return float(np.expm1(np.sum(u * u / (2.0 * (1.0 - u)))))


def _example4(out):
    # |x-y|^(-1/2): product-quadrature assembly K_64 and the paper's det_3 pair
    # det_3(I - zK_64) det_3(I + zK_64) on the whole matrix, beside its
    # five-eigenvalue surrogate (gap bounded by the spectral tail) and the
    # iterated-kernel route det_2(I - z^2 K_2N) on a zero-diagonal rectangle
    # rule, which tracks the pair only inside the zero-free disc |z| rho(K_64) < 1;
    # the five zeros of det_3(I - zK_64) in |z| < 1.1 come from locate_eigs; one
    # reduction of each matrix serves its values, and K_64's the root search
    spec = registry("abs_pow")
    it2 = registry("abs_pow_iter2")
    prep64 = prepare(assemble(spec, "singular", 64))
    lam = eigenvalues(prep64.matrix)
    top5, tail = lam[:5], lam[5:]
    ests = locate_eigs(prep64, 3, 0.0, 1.1)

    zs = np.arange(1, 12) / 11
    fulls = prep64.values(3, -zs) * prep64.values(3, zs)
    rhss = prepare(assemble(it2, "rect", 64, zero_diag=True)).values(2, -zs * zs)
    cons_rows, cons, trunc, bound, cross = [], [], [], [], []
    for z, full, rhs in zip(zs, fulls, rhss):
        lhs = det_from_eigs(top5, 3, -z).value * det_from_eigs(top5, 3, z).value
        cons.append(abs(lhs - rhs))
        trunc.append(abs(lhs / full - 1.0))
        bound.append(_pair_tail_bound(tail, z))
        cross.append(abs(full - rhs))
        cons_rows.append((z, lhs.real, lhs.imag, full.real, full.imag, rhs.real, rhs.imag,
                          cons[-1], trunc[-1], bound[-1], cross[-1]))
    write_csv(out("consistency.csv"),
              ["z", "d3_pair_re", "d3_pair_im", "d3_full_re", "d3_full_im",
               "det2_iter_re", "det2_iter_im", "abs_diff", "trunc_rel", "trunc_bound",
               "cross_abs"],
              cons_rows)

    w = 0.01  # z = 0.1 in the det_2(I - z^2 K_2) variable
    ref = REFERENCES["abs_pow_iter2"][0](w)
    ns = [32, 64, 128, 256]
    errs = [abs(det_p(assemble(it2, "rect", n, zero_diag=True), 2, -w).value - ref) for n in ns]
    slopes = _convergence(out, ns, [("rect_iter2", w, ref, errs)])

    by_z = lambda vals: {format(z, ".6g"): v for z, v in zip(zs, vals)}
    config = {"kernel": "abs_pow", "alpha": 0.5,
              "schemes": ["singular", "rect"], "n_values": ns, "n_consistency": 64,
              "p": 3, "sign": -1, "z_points": [[z, 0.0] for z in zs]}
    residuals = {
        "consistency_max": max(cons),
        "consistency_by_z": by_z(cons),
        "truncation_by_z": by_z(trunc),
        "tail_bound_by_z": by_z(bound),
        "cross_route_by_z": by_z(cross),
        "zero_free_radius": 1.0 / abs(lam[0]),
        "iterated_errs": dict(zip(map(str, ns), errs)),
    }
    return config, slopes, ests, residuals


_BUILDERS = {1: partial(_smooth_example, _SMOOTH_EXAMPLES[1]),
             2: partial(_smooth_example, _SMOOTH_EXAMPLES[2]),
             3: _example3, 4: _example4}
