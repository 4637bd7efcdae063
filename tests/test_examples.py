import csv
import json

import numpy as np
import pytest

from fredet.discretize import assemble_nystrom
from fredet.examples import run_example, write_csv, write_summary
from fredet.kernels import registry
from fredet.linalg import eigenvalues
from fredet.quadrature import gauss_legendre


def test_run_example_rejects_bad_id(tmp_path):
    with pytest.raises(ValueError):
        run_example(7, str(tmp_path))


def test_write_csv_and_summary_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [(1, 0.5), ("slope", -2.0)])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "0.5"]
    assert rows[2][0] == "slope"
    spath = tmp_path / "s.json"
    write_summary(str(spath), {"x": np.float64(1.5), "n": np.int64(3)})
    assert json.loads(spath.read_text()) == {"x": 1.5, "n": 3}


def test_example2_files_and_summary(ex2):
    outdir, summary = ex2["dir"], ex2["summary"]
    for name in ("example2_convergence.csv", "example2_eigs.csv",
                 "example2_summary.json"):
        assert (outdir / name).exists(), name
    rows = list(csv.reader((outdir / "example2_convergence.csv").open()))
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
    grid_rows = list(csv.reader((outdir / "example3_grid.csv").open()))
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
