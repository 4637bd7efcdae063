"""Reproductions of the four worked determinant experiments.

Each run_example writes convergence CSVs, value tables, and a summary JSON
into outdir, and returns the summary as a dict.  References follow the
det_p(I - zK) orientation, so the internal evaluation point is -z.
"""

import csv
import json
import os

import numpy as np

from .determinants import det_p, det_from_eigs
from .discretize import assemble_ncc, assemble_nystrom, assemble_singular
from .kernels import registry
from .linalg import eigenvalues, trace_powers
from .quadrature import gauss_legendre, rectangle
from .references import det_bernoulli, det_green, det_iter2_p2, det_sign_p2
from .spectra import fit_order, locate_eigs

EXAMPLE_IDS = (1, 2, 3, 4)


def write_csv(path, header, rows):
    """RFC-4180-style CSV with 17 significant digits for floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_summary(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _root_rows(estimates):
    return [
        {
            "z_re": e.z_root.real, "z_im": e.z_root.imag,
            "lam_re": e.lam.real, "lam_im": e.lam.imag,
            "mult_estimate": e.mult_estimate, "residual": e.residual,
        }
        for e in estimates
    ]


def _eig_csv(path, estimates):
    write_csv(
        path,
        ["z_root_re", "z_root_im", "lam_re", "lam_im", "mult_estimate", "residual"],
        [(e.z_root.real, e.z_root.imag, e.lam.real, e.lam.imag, e.mult_estimate, e.residual)
         for e in estimates],
    )


def _sweep(build, ref, z, ns, p=1):
    errs = []
    for n in ns:
        val = det_p(build(n), p, -z).value
        errs.append(abs(val - ref(z)))
    return errs


def _convergence_rows(label, z, ns, errs):
    return [(label, float(np.real(z)), float(np.imag(z)), n, e) for n, e in zip(ns, errs)]


def run_example(example_id: int, outdir: str) -> dict:
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"example_id must be one of {EXAMPLE_IDS}, got {example_id}")
    os.makedirs(outdir, exist_ok=True)
    return {1: _example1, 2: _example2, 3: _example3, 4: _example4}[example_id](outdir)


def _example1(outdir):
    # Green kernel on [0, 1]: simple eigenvalues 1/(n pi)^2, d(z) = sin(sqrt z)/sqrt z
    spec = registry("green")
    ns = [10, 20, 40, 80, 160, 320]
    builds = {
        "ngl": lambda n: assemble_nystrom(spec, gauss_legendre(n, 0.0, 1.0)),
        "ncc": lambda n: assemble_ncc(spec, n),
    }
    z_points = [np.pi**2, 1.0]
    rows, slopes = [], {}
    for scheme, build in builds.items():
        for z in z_points:
            errs = _sweep(build, det_green, z, ns)
            rows += _convergence_rows(scheme, z, ns, errs)
            slopes[f"{scheme}@z={z:.6g}"] = fit_order(ns, errs).slope
    write_csv(os.path.join(outdir, "example1_convergence.csv"),
              ["scheme", "z_re", "z_im", "n", "abs_err"], rows)

    ests = locate_eigs(builds["ngl"](128), 1, 50.0, 49.0)
    _eig_csv(os.path.join(outdir, "example1_eigs.csv"), ests)

    summary = {
        "command": "example",
        "config": {"example": 1, "kernel": "green", "schemes": ["ngl", "ncc"],
                   "n_values": ns, "p": 1, "sign": -1,
                   "z_points": [[z, 0.0] for z in z_points]},
        "slopes": slopes,
        "roots": _root_rows(ests),
        "residuals": {},
    }
    write_summary(os.path.join(outdir, "example1_summary.json"), summary)
    return summary


def _example2(outdir):
    # periodic Bernoulli kernel: double eigenvalues 1/(2n pi)^2, d(z) = (2-2cos sqrt z)/z;
    # the N = 128 matrix splits the first double into two close roots, 39.46450 and 39.46646
    spec = registry("bernoulli")
    ns = [10, 20, 40, 80, 160, 320]
    ngl = lambda n: assemble_nystrom(spec, gauss_legendre(n, 0.0, 1.0))
    ncc = lambda n: assemble_ncc(spec, n)
    rows, slopes = [], {}
    for scheme, build, z in (("ngl", ngl, 4 * np.pi**2), ("ngl", ngl, 1.0), ("ncc", ncc, 1.0)):
        errs = _sweep(build, det_bernoulli, z, ns)
        rows += _convergence_rows(scheme, z, ns, errs)
        slopes[f"{scheme}@z={z:.6g}"] = fit_order(ns, errs).slope
    write_csv(os.path.join(outdir, "example2_convergence.csv"),
              ["scheme", "z_re", "z_im", "n", "abs_err"], rows)

    ests = locate_eigs(ngl(128), 1, 4 * np.pi**2, 10.0)
    _eig_csv(os.path.join(outdir, "example2_eigs.csv"), ests)

    summary = {
        "command": "example",
        "config": {"example": 2, "kernel": "bernoulli", "schemes": ["ngl", "ncc"],
                   "n_values": ns, "p": 1, "sign": -1,
                   "z_points": [[4 * np.pi**2, 0.0], [1.0, 0.0]]},
        "slopes": slopes,
        "roots": _root_rows(ests),
        "residuals": {},
    }
    write_summary(os.path.join(outdir, "example2_summary.json"), summary)
    return summary


def _example3(outdir):
    # antisymmetric jump kernel, rectangle rule with zeroed diagonal, p = 2
    spec = registry("sign")
    ns = [25, 50, 100, 200, 400]
    build = lambda n: assemble_nystrom(spec, rectangle(n, -1.0, 1.0), zero_diag=True)
    grid = [complex(re, im) for re in np.linspace(-1.0, 1.0, 9) for im in np.linspace(-1.0, 1.0, 9)]

    surface, rows = [], []
    root_z, one_z = 1j * np.pi / 4, 1.0
    err_root, err_one = [], []
    ops = {}
    for n in ns:
        op = build(n)
        ops[n] = op
        surface.append(max(abs(det_p(op, 2, -z).value - det_sign_p2(z)) for z in grid))
        err_root.append(abs(det_p(op, 2, -root_z).value - det_sign_p2(root_z)))
        err_one.append(abs(det_p(op, 2, -one_z).value - det_sign_p2(one_z)))
    write_csv(os.path.join(outdir, "example3_surface.csv"),
              ["n", "max_abs_err"], list(zip(ns, surface)))
    rows += _convergence_rows("rect", root_z, ns, err_root)
    rows += _convergence_rows("rect", one_z, ns, err_one)
    write_csv(os.path.join(outdir, "example3_convergence.csv"),
              ["scheme", "z_re", "z_im", "n", "abs_err"], rows)

    grid_rows = []
    for z in grid:
        v, r = det_p(ops[400], 2, -z).value, det_sign_p2(z)
        grid_rows.append((z.real, z.imag, v.real, v.imag, r.real, r.imag, abs(v - r)))
    write_csv(os.path.join(outdir, "example3_grid.csv"),
              ["z_re", "z_im", "value_re", "value_im", "ref_re", "ref_im", "abs_err"], grid_rows)

    tr2 = trace_powers(ops[400].matrix, 2)[1].real
    ests = locate_eigs(ops[200], 2, 0.0, 1.2)
    _eig_csv(os.path.join(outdir, "example3_eigs.csv"), ests)

    slopes = {
        "surface": fit_order(ns, surface).slope,
        f"rect@z={root_z:.6g}": fit_order(ns, err_root).slope,
        f"rect@z={one_z:.6g}": fit_order(ns, err_one).slope,
    }
    summary = {
        "command": "example",
        "config": {"example": 3, "kernel": "sign", "schemes": ["rect"], "zero_diag": True,
                   "n_values": ns, "p": 2, "sign": -1, "grid": [-1.0, 1.0, -1.0, 1.0, 9]},
        "slopes": slopes,
        "roots": _root_rows(ests),
        "residuals": {"trace_k2_at_400": abs(tr2 - (-4.0)), "trace_k2_value": tr2},
    }
    write_summary(os.path.join(outdir, "example3_summary.json"), summary)
    return summary


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


def _example4(outdir):
    # |x-y|^(-1/2): product-quadrature assembly K_64 and the paper's det_3 pair
    # det_3(I - zK_64) det_3(I + zK_64) on the whole matrix, beside its
    # five-eigenvalue surrogate (gap bounded by the spectral tail) and the
    # iterated-kernel route det_2(I - z^2 K_2N) on a zero-diagonal rectangle
    # rule, which tracks the pair only inside the zero-free disc |z| rho(K_64) < 1
    spec = registry("abs_pow")
    it2 = registry("abs_pow_iter2")
    op64 = assemble_singular(spec, 64)
    lam = eigenvalues(op64.matrix)
    top5, tail = lam[:5], lam[5:]
    write_csv(os.path.join(outdir, "example4_eigs.csv"),
              ["lam_re", "lam_im"], [(l.real, l.imag) for l in top5])

    it_build = lambda n: assemble_nystrom(it2, rectangle(n, -1.0, 1.0), zero_diag=True)
    it64 = it_build(64)
    zs = [(k + 1) / 11 for k in range(11)]
    cons_rows, cons, trunc, bound, cross = [], [], [], [], []
    for z in zs:
        lhs = det_from_eigs(top5, 3, -z).value * det_from_eigs(top5, 3, z).value
        full = det_p(op64, 3, -z).value * det_p(op64, 3, z).value
        rhs = det_p(it64, 2, -z * z).value
        cons.append(abs(lhs - rhs))
        trunc.append(abs(lhs / full - 1.0))
        bound.append(_pair_tail_bound(tail, z))
        cross.append(abs(full - rhs))
        cons_rows.append((z, lhs.real, lhs.imag, full.real, full.imag, rhs.real, rhs.imag,
                          cons[-1], trunc[-1], bound[-1], cross[-1]))
    write_csv(os.path.join(outdir, "example4_consistency.csv"),
              ["z", "d3_pair_re", "d3_pair_im", "d3_full_re", "d3_full_im",
               "det2_iter_re", "det2_iter_im", "abs_diff", "trunc_rel", "trunc_bound",
               "cross_abs"],
              cons_rows)

    w = 0.01  # z = 0.1 in the det_2(I - z^2 K_2) variable
    ref = det_iter2_p2(w)
    ns = [32, 64, 128, 256]
    errs = [abs(det_p(it_build(n), 2, -w).value - ref) for n in ns]
    write_csv(os.path.join(outdir, "example4_convergence.csv"),
              ["scheme", "z_re", "z_im", "n", "abs_err"],
              _convergence_rows("rect_iter2", w, ns, errs))

    by_z = lambda vals: {format(z, ".6g"): v for z, v in zip(zs, vals)}
    summary = {
        "command": "example",
        "config": {"example": 4, "kernel": "abs_pow", "alpha": 0.5,
                   "schemes": ["singular", "rect"], "n_values": ns, "n_consistency": 64,
                   "p": 3, "sign": -1, "z_points": [[z, 0.0] for z in zs]},
        "slopes": {"rect_iter2@z=0.01": fit_order(ns, errs).slope},
        "roots": [{"z_re": (1 / l).real, "z_im": (1 / l).imag,
                   "lam_re": l.real, "lam_im": l.imag,
                   "mult_estimate": 1, "residual": float("nan")} for l in top5],
        "residuals": {
            "consistency_max": max(cons),
            "consistency_by_z": by_z(cons),
            "truncation_by_z": by_z(trunc),
            "tail_bound_by_z": by_z(bound),
            "cross_route_by_z": by_z(cross),
            "zero_free_radius": 1.0 / abs(lam[0]),
            "iterated_errs": dict(zip(map(str, ns), errs)),
        },
    }
    write_summary(os.path.join(outdir, "example4_summary.json"), summary)
    return summary
