import csv
import io
import json

import numpy as np
import pytest

import fredet.determinants
import fredet.discretize
from fredet.discretize import assemble_nystrom, assemble_singular
from fredet.examples import (ROOT_CSV_HEADER, ROOT_JSON_KEYS, SLOPE_FLOOR, _pair_tail_bound,
                             dump_json, resolved_slope, root_row, run_example, write_csv,
                             write_summary)
from fredet.kernels import registry
from fredet.linalg import eigenvalues
from fredet.quadrature import gauss_legendre
from fredet.spectra import locate_eigs


def _lines(path):
    return path.read_text().splitlines()


def test_run_example_rejects_bad_id(tmp_path):
    with pytest.raises(ValueError):
        run_example(7, str(tmp_path))


def test_write_csv_and_summary_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [(1, 0.5), ("slope", -2.0)])
    rows = list(csv.reader(_lines(path)))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "0.5"]
    assert rows[2][0] == "slope"
    spath = tmp_path / "s.json"
    write_summary(str(spath), {"x": np.float64(1.5), "n": np.int64(3)})
    assert json.loads(spath.read_text()) == {"x": 1.5, "n": 3}


def test_write_csv_stream_matches_path(tmp_path):
    header, rows = ["scheme", "x", "n"], [("ngl", 0.1, 3), ("slope", -2.0, np.float64(1e-17))]
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    buf = io.StringIO()
    write_csv(buf, header, rows)
    assert buf.getvalue() == path.read_bytes().decode("utf-8")
    assert buf.getvalue() == ("scheme,x,n\r\nngl,0.10000000000000001,3\r\n"
                              "slope,-2,1.0000000000000001e-17\r\n")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_dump_json_writes_non_finite_as_null():
    obj = {"a": [1.0, float("nan"), {"b": float("inf")}], "c": (np.float64(-np.inf), 2),
           "d": {"e": [[np.nan]]}}
    text = dump_json(obj)
    assert _strict_json(text) == {"a": [1.0, None, {"b": None}], "c": [None, 2],
                                  "d": {"e": [[None]]}}
    assert "NaN" not in text and "Infinity" not in text


def test_example_summaries_are_strict_json(ex1, ex2, ex3, ex4):
    for example_id, ex in enumerate((ex1, ex2, ex3, ex4), start=1):
        summary = _strict_json((ex["dir"] / f"example{example_id}_summary.json").read_text())
    # example 4 searches its five roots with locate_eigs, so every residual is finite
    lam = eigenvalues(assemble_singular(registry("abs_pow"), 64).matrix)
    assert len(summary["roots"]) == 5
    for r, want in zip(summary["roots"], 1.0 / lam[:5]):
        assert r["mult_estimate"] == 1
        assert r["residual"] is not None and np.isfinite(r["residual"])
        assert r["residual"] <= 1e-10
        assert abs(complex(r["z_re"], r["z_im"]) - want) <= 1e-12 * abs(want)
    rows = list(csv.reader(_lines(ex4["dir"] / "example4_eigs.csv")))
    assert rows[0] == ROOT_CSV_HEADER
    assert len(rows) == 1 + 5


def test_slope_fitted_on_rounding_is_null(ex1):
    # example 1's ncc errors at z = pi^2 sit at rounding from N = 20 on, which leaves
    # one point to fit: the key stays, with a null slope, in strict JSON
    on_disk = _strict_json((ex1["dir"] / "example1_summary.json").read_text())
    for slopes in (ex1["summary"]["slopes"], on_disk["slopes"]):
        assert "ncc@z=9.8696" in slopes and slopes["ncc@z=9.8696"] is None
        assert all(isinstance(v, float) for k, v in slopes.items() if k != "ncc@z=9.8696")


def test_resolved_slope_fits_only_errors_above_rounding():
    ns = [10, 20, 40, 80, 160]
    errs = [1e-2, 2.5e-3, 6.25e-4, 1.5625e-4, 0.5 * SLOPE_FLOOR]
    assert abs(resolved_slope(ns, errs, 0.3) - (-2.0)) < 1e-12  # the last point is dropped
    # the floor scales with a reference above 1: at |ref| = 1e12 only 1e-2 is above it
    assert resolved_slope(ns, errs, 1e12) is None
    assert resolved_slope(ns[:3], errs[:3], 1.0) is None  # fewer than 4 points


@pytest.mark.parametrize("tail, z", [([0.5, 1.0], 1.0), ([0.1, -0.5], -2.0), ([0.2j], 6.0)])
def test_pair_tail_bound_is_infinite_once_some_z_lambda_reaches_one(tail, z):
    # the bound |log E_2(u)| <= |u|^2 / (2 (1 - |u|)) holds only for |u| < 1
    assert _pair_tail_bound(tail, z) == float("inf")
    u = np.abs(z * np.asarray(tail[:1])) ** 2 * 0.25  # the same tail at half z, |u| < 1
    assert _pair_tail_bound(tail[:1], z / 2) == np.expm1(np.sum(u * u / (2.0 * (1.0 - u))))


def test_example2_files_and_summary(ex2):
    outdir, summary = ex2["dir"], ex2["summary"]
    for name in ("example2_convergence.csv", "example2_eigs.csv",
                 "example2_summary.json"):
        assert (outdir / name).exists(), name
    rows = list(csv.reader(_lines(outdir / "example2_convergence.csv")))
    assert rows[0] == ["scheme", "z_re", "z_im", "n", "abs_err"]
    assert len(rows) == 1 + 3 * 6  # three curves over six sizes

    slopes = summary["slopes"]
    assert set(slopes) == {"ngl@z=39.4784", "ngl@z=1", "ncc@z=1"}
    assert -4.6 < slopes["ngl@z=39.4784"] < -3.4
    assert -2.5 < slopes["ngl@z=1"] < -1.6
    assert -2.5 < slopes["ncc@z=1"] < -1.6

    on_disk = json.loads((outdir / "example2_summary.json").read_text())
    assert on_disk["slopes"].keys() == slopes.keys()


def test_example2_locates_double_root(ex2):
    # the discrete operator at N = 128 has two close roots near the double
    # eigenvalue 1/(4 pi^2); both must be reported, each at its own 1/lam
    roots = ex2["summary"]["roots"]
    assert len(roots) == 2, roots
    assert sum(r["mult_estimate"] for r in roots) == 2
    target = 4.0 * np.pi**2
    op = assemble_nystrom(registry("bernoulli"), gauss_legendre(128, 0.0, 1.0))
    own = sorted(1.0 / eigenvalues(op.matrix)[:2], key=lambda w: w.real)
    got = sorted((complex(r["z_re"], r["z_im"]) for r in roots), key=lambda w: w.real)
    for z, want in zip(got, own):
        assert abs(z - target) / target < 1e-2
        assert abs(z - want) / abs(want) < 1e-8, (z, want)


def test_example3_files_and_summary(ex3):
    outdir, summary = ex3["dir"], ex3["summary"]
    for name in ("example3_surface.csv", "example3_convergence.csv",
                 "example3_grid.csv", "example3_eigs.csv", "example3_summary.json"):
        assert (outdir / name).exists(), name
    grid_rows = list(csv.reader(_lines(outdir / "example3_grid.csv")))
    assert len(grid_rows) == 1 + 81

    slopes = summary["slopes"]
    assert -1.5 < slopes["surface"] < -0.6
    assert summary["residuals"]["trace_k2_at_400"] <= 0.1


def test_example3_locates_imaginary_pair(ex3):
    roots = ex3["summary"]["roots"]
    assert len(roots) == 2
    target = np.pi / 4.0
    for r in roots:
        assert abs(r["z_re"]) < 1e-3
        assert abs(abs(r["z_im"]) - target) / target < 2e-2
    assert {np.sign(r["z_im"]) for r in roots} == {1.0, -1.0}


def test_example3_grid_reuses_largest_n_surface(ex3):
    # the grid table is the N = 400 sweep, so its worst error is the last surface row
    outdir = ex3["dir"]
    grid = list(csv.DictReader(_lines(outdir / "example3_grid.csv")))
    surface = list(csv.DictReader(_lines(outdir / "example3_surface.csv")))
    assert surface[-1]["n"] == "400"
    assert max(float(r["abs_err"]) for r in grid) == float(surface[-1]["max_abs_err"])


@pytest.mark.parametrize("example_id", [1, 2])
def test_smooth_examples_assemble_each_matrix_once(example_id, monkeypatch, tmp_path):
    # one matrix per (scheme, n) of the six-point sweep, plus the N = 128
    # matrix of the root search; a smooth kernel's ncc matrix is Nystrom on the
    # Clenshaw-Curtis rule, so a builder called inside another is not counted
    built, active = [], []
    for name in ("assemble_nystrom", "assemble_ncc"):
        def counted(*args, _name=name, _build=getattr(fredet.discretize, name), **kwargs):
            if not active:
                built.append(_name)
            active.append(_name)
            try:
                return _build(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(fredet.discretize, name, counted)
    run_example(example_id, str(tmp_path))
    assert (built.count("assemble_nystrom"), built.count("assemble_ncc")) == (7, 6)


def test_example4_reduces_each_matrix_once(monkeypatch, tmp_path):
    # one PreparedDet of K_64 serves the det_3 pair and the root search, one of
    # the iterated-kernel matrix its det_2 values; the roots are those of a
    # standalone search, bit for bit
    calls = []
    reduce = fredet.determinants._reduce
    monkeypatch.setattr(fredet.determinants, "_reduce",
                        lambda m, w: calls.append(1) or reduce(m, w))
    summary = run_example(4, str(tmp_path))
    assert len(calls) == 2
    monkeypatch.undo()
    ests = locate_eigs(assemble_singular(registry("abs_pow"), 64), 3, 0.0, 1.1)
    assert summary["roots"] == [dict(zip(ROOT_JSON_KEYS, root_row(e))) for e in ests]
