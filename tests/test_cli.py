import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import fredet
import fredet.cli
import fredet.determinants
from fredet import SCHEMES
from fredet.cli import MAX_GRID_STEPS, _parse_grid, main
from fredet.determinants import det_from_eigs, det_p
from fredet.discretize import assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import MAX_DIM, eigenvalues
from fredet.quadrature import rectangle
from fredet.spectra import RefinementError

BERN_AT_ONE = 2.0 - 2.0 * np.cos(1.0)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_at_zero_is_one(capsys):
    code, out, _ = run(["det", "--kernel", "green", "--scheme", "ngl",
                        "--n", "8", "--z", "0,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z_re,z_im,value_re,value_im,route"
    z_re, z_im, v_re, v_im, route = lines[1].split(",")
    assert (float(z_re), float(z_im)) == (0.0, 0.0)
    assert (float(v_re), float(v_im)) == (1.0, 0.0)
    assert route == "LU_TRACE"


def test_det_matches_analytic_value(capsys):
    code, out, _ = run(["det", "--kernel", "bernoulli", "--scheme", "ngl",
                        "--n", "64", "--z", "1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[2]) - BERN_AT_ONE) < 1e-5
    assert abs(float(row[3])) < 1e-12


def test_det_grid_json(capsys):
    code, out, _ = run(["det", "--kernel", "sign", "--scheme", "rect", "--n", "30",
                        "--p", "2", "--zero-diag", "--grid=-1,1,-1,1,3",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "det"
    assert payload["config"]["kernel"] == "sign"
    assert len(payload["rows"]) == 9
    worst = max(abs(complex(r["value_re"], r["value_im"])
                    - np.cosh(2.0 * complex(r["z_re"], r["z_im"])))
                for r in payload["rows"])
    assert worst < 0.6


def test_det_grid_matches_eigenvalue_route(capsys):
    # example 3's operator and 81-point grid: the grid goes through one
    # Hessenberg reduction, and still agrees with the eigenvalue product
    code, out, _ = run(["det", "--kernel", "sign", "--scheme", "rect", "--n", "200",
                        "--p", "2", "--zero-diag", "--grid=-1,1,-1,1,9"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 81
    lam = eigenvalues(assemble_nystrom(registry("sign"), rectangle(200, -1.0, 1.0),
                                       zero_diag=True).matrix)
    for z_re, z_im, v_re, v_im, route in rows:
        want = det_from_eigs(lam, 2, -complex(float(z_re), float(z_im))).value
        assert abs(complex(float(v_re), float(v_im)) - want) <= 1e-12 * abs(want)
        assert route == "LU_TRACE"


def test_det_reduces_only_grids_past_break_even(monkeypatch, capsys):
    calls = []
    reduce = fredet.determinants._reduce
    monkeypatch.setattr(fredet.determinants, "_reduce",
                        lambda m, w: calls.append(1) or reduce(m, w))
    args = ["det", "--kernel", "sign", "--scheme", "rect", "--n", "40", "--p", "2", "--zero-diag"]
    code, out, _ = run(args + ["--grid=-1,1,-1,1,4"], capsys)  # 16 points: one LU each
    assert code == 0 and calls == []
    op = assemble_nystrom(registry("sign"), rectangle(40, -1.0, 1.0), zero_diag=True)
    for line in out.strip().splitlines()[1:]:
        z_re, z_im, v_re, v_im, _ = line.split(",")
        want = det_p(op, 2, -complex(float(z_re), float(z_im))).value
        assert complex(float(v_re), float(v_im)) == want
    code, out, _ = run(args + ["--grid=-1,1,-1,1,5"], capsys)  # 25 points: one reduction
    assert code == 0 and calls == [1]
    assert len(out.strip().splitlines()) == 26


def test_sign_flag_flips_evaluation_point(capsys):
    _, out_minus, _ = run(["det", "--kernel", "green", "--scheme", "ngl",
                           "--n", "16", "--z", "1,0"], capsys)
    _, out_plus, _ = run(["det", "--kernel", "green", "--scheme", "ngl",
                          "--n", "16", "--z=-1,0", "--sign", "+"], capsys)
    v_minus = out_minus.strip().splitlines()[1].split(",")[2]
    v_plus = out_plus.strip().splitlines()[1].split(",")[2]
    assert float(v_minus) == float(v_plus)
    assert abs(float(v_minus) - np.sin(1.0)) < 1e-3


@pytest.mark.parametrize("flag, sign", [([], -1), (["--sign", "-"], -1), (["--sign", "+"], 1)],
                         ids=["default", "minus", "plus"])
@pytest.mark.parametrize("argv", [
    ["det", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--z", "1,0"],
    ["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "8:32:geometric",
     "--z", "1,0", "--ref", "none"],
    ["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "16", "--region", "12,0,8"],
], ids=["det", "converge", "eigs"])
def test_config_sign_is_a_number(argv, flag, sign, capsys):
    code, out, _ = run(argv + flag + ["--format", "json"], capsys)
    assert code == 0
    echoed = json.loads(out)["config"]["sign"]
    assert type(echoed) is int and echoed == sign


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_cli_json_payloads_are_strict(ex4, monkeypatch, capsys):
    for argv in (
        ["det", "--kernel", "sign", "--scheme", "rect", "--n", "20", "--p", "2",
         "--zero-diag", "--grid=-1,1,-1,1,2"],
        ["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "8:64:geometric",
         "--z", "1,0"],
        ["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "16", "--region", "12,0,8"],
        ["identity", "--trials", "2"],
    ):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        _strict_json(out)
    # example 4 searches its five roots like the other examples: each has a
    # finite residual and sits at 1/lam_k of K_64
    monkeypatch.setattr(fredet.cli, "run_example", lambda example_id, outdir: ex4["summary"])
    code, out, _ = run(["example", "--id", "4"], capsys)
    assert code == 0
    roots = _strict_json(out)["roots"]
    lam = eigenvalues(assemble_singular(registry("abs_pow"), 64).matrix)
    assert len(roots) == 5
    for r, want in zip(roots, 1.0 / lam[:5]):
        assert r["mult_estimate"] == 1
        assert r["residual"] is not None and np.isfinite(r["residual"])
        assert r["residual"] <= 1e-10
        assert abs(complex(r["z_re"], r["z_im"]) - want) <= 1e-12 * abs(want)


def test_det_output_is_deterministic(tmp_path, capsys):
    for args in (["det", "--kernel", "bernoulli", "--scheme", "ncc", "--n", "20",
                  "--grid=0,2,0,1,2"],
                 # twelve zeros in one disc
                 ["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "24",
                  "--region", "500,0,499"]):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_det_stdout_matches_out_file(fmt, tmp_path, capsys):
    args = ["det", "--kernel", "sign", "--scheme", "rect", "--n", "20", "--p", "2",
            "--zero-diag", "--grid=-1,1,-1,1,2", "--format", fmt]
    code, out, _ = run(args, capsys)
    assert code == 0
    path = tmp_path / f"det.{fmt}"
    assert main(args + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert out.encode("utf-8") == path.read_bytes()


def test_converge_reports_slope(capsys):
    code, out, _ = run(["converge", "--kernel", "bernoulli", "--scheme", "ngl",
                        "--n-sweep", "10:160:geometric", "--z", "1,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,abs_err"
    assert len(lines) == 7  # 5 sweep rows plus the slope row
    label, slope = lines[-1].split(",")
    assert label == "slope"
    assert -2.5 < float(slope) < -1.6


def test_converge_omits_a_slope_fitted_on_rounding(capsys):
    # green ncc at z = pi^2: every error from N = 20 on is rounding, so no slope
    argv = ["converge", "--kernel", "green", "--scheme", "ncc", "--n-sweep", "20:160:geometric",
            "--z", f"{np.pi**2!r},0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5 and all(not line.startswith("slope") for line in lines)
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)["slopes"] == {}


def test_converge_ref_none_emits_values(capsys):
    code, out, _ = run(["converge", "--kernel", "abs_pow", "--scheme", "singular",
                        "--n-sweep", "8:32:geometric", "--z", "0.5,0",
                        "--ref", "none"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value_re,value_im"
    assert len(lines) == 4


def test_converge_without_reference_fails_with_hint(capsys):
    code, _, err = run(["converge", "--kernel", "abs_pow", "--scheme", "singular",
                        "--n-sweep", "8:32:geometric", "--z", "0.5,0"], capsys)
    assert code == 1
    assert "--ref none" in err


def test_converge_reference_p_mismatch(capsys):
    code, _, err = run(["converge", "--kernel", "sign", "--scheme", "rect",
                        "--zero-diag", "--n-sweep", "25:100:geometric",
                        "--z", "1,0", "--ref", "sign"], capsys)
    assert code == 1
    assert "p = 2" in err


def test_rect_jump_kernel_requires_zero_diag(capsys):
    code, _, err = run(["det", "--kernel", "sign", "--scheme", "rect",
                        "--n", "16", "--p", "2", "--z", "1,0"], capsys)
    assert code == 1
    assert "--zero-diag" in err


def test_zero_diag_rejected_off_quadrature_schemes(capsys):
    code, _, err = run(["det", "--kernel", "green", "--scheme", "ncc",
                        "--n", "16", "--z", "1,0", "--zero-diag"], capsys)
    assert code == 1
    assert "zero-diag" in err


def test_eigs_finds_ground_eigenvalue(capsys):
    code, out, _ = run(["eigs", "--kernel", "green", "--scheme", "ngl",
                        "--n", "64", "--region", "12,0,8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "eigs"
    assert len(payload["roots"]) == 1
    root = payload["roots"][0]
    assert abs(root["z_re"] - np.pi**2) / np.pi**2 < 1e-2
    assert abs(root["lam_re"] - 1.0 / np.pi**2) < 1e-4
    assert root["mult_estimate"] == 1


def test_eigs_weakly_singular_disc(capsys):
    # log|det_3| on |z| = 1.5 spans about 85 nats by growth alone; every
    # sample is still trusted, and the nine zeros are each 1/lam of K_64
    code, out, _ = run(["eigs", "--kernel", "abs_pow", "--scheme", "singular", "--p", "3",
                        "--n", "64", "--region", "0,0,1.5"], capsys)
    assert code == 0
    roots = [complex(r["z_re"], r["z_im"]) for r in json.loads(out)["roots"]]
    expect = 1.0 / eigenvalues(assemble_singular(registry("abs_pow"), 64).matrix)
    expect = expect[np.abs(expect) < 1.5]
    assert len(roots) == expect.size == 9
    for z in roots:
        assert np.min(np.abs(expect - z)) <= 1e-12 * abs(z)
    for want in expect:
        assert min(abs(want - z) for z in roots) <= 1e-12 * abs(want)


def test_eigs_csv_format(capsys):
    # a header, then one line per root: green's ground root; the 17 roots of one disc
    # at N = 128 and at N = 400, each with its last polish step; det_3's nine on abs_pow
    for args, roots in (
        (["--kernel", "green", "--scheme", "ngl", "--n", "48", "--region", "12,0,8"], 1),
        (["--kernel", "green", "--scheme", "ngl", "--n", "128", "--region", "1500,0,1499"], 17),
        (["--kernel", "green", "--scheme", "ngl", "--n", "400", "--region", "1500,0,1499"], 17),
        (["--kernel", "abs_pow", "--scheme", "singular", "--p", "3", "--n", "64",
          "--region", "0,0,1.5"], 9),
    ):
        code, out, _ = run(["eigs", *args, "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("z_root_re,z_root_im,lam_re,lam_im")
        assert lines[0].endswith(",step")
        assert out.count("\n") == len(lines) == 1 + roots, args


def test_identity_passes(capsys):
    for args in (["--trials", "5", "--seed", "3"], ["--trials", "20"]):
        code, out, _ = run(["identity", *args, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert max(v for k, v in payload["residuals"].items()
                   if k != "sign:closed_form_squared") < 1e-8


def test_example_runs_and_writes_files(tmp_path, capsys):
    code, out, _ = run(["example", "--id", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    for name in ("example4_eigs.csv", "example4_consistency.csv",
                 "example4_convergence.csv", "example4_summary.json"):
        assert (tmp_path / name).exists(), name
    payload = json.loads(out)
    assert "slopes" in payload and "residuals" in payload


_EXAMPLES = """
import contextlib, sys
from fredet.cli import main
for k in "1234":
    with open(f"{sys.argv[1]}/stdout-{k}.json", "w") as fh, contextlib.redirect_stdout(fh):
        code = main(["example", "--id", k, "--out", f"{sys.argv[1]}/files"])
    if code:
        sys.exit(code)
"""


def _src_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fredet.__file__)))


def test_examples_write_the_same_bytes_in_a_second_process(tmp_path):
    # examples 1-4 through the CLI in each of two processes, one after the other (side
    # by side, their BLAS threads would share the cores): the same files and the same
    # stdout, bit for bit; example 3's grid is a header and 81 points
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        result = subprocess.run([sys.executable, "-c", _EXAMPLES, str(tmp_path / name)],
                                env=_src_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append({str(f.relative_to(tmp_path / name)): f.read_bytes()
                        for f in (tmp_path / name).rglob("*") if f.is_file()})
    assert len(outputs[0]) == 4 + 3 + 3 + 5 + 4  # four stdouts, then each example's files
    assert outputs[0] == outputs[1]
    assert outputs[0]["files/example3_grid.csv"].count(b"\n") == 82


def test_example_stdout_matches_summary_file(tmp_path, capsys):
    code, out, _ = run(["example", "--id", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.encode("utf-8") == (tmp_path / "example1_summary.json").read_bytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_det_per_scheme(scheme, capsys):
    kernel = "abs_pow" if scheme == "singular" else "green"
    code, out, _ = run(["det", "--kernel", kernel, "--scheme", scheme, "--n", "16",
                        "--z", "1,0"], capsys)
    assert code == 0 and len(out.strip().splitlines()) == 2


def test_split_kernel_not_finite_off_its_own_side_runs_with_an_empty_stderr(tmp_path, capsys):
    # sqrt(x - y) is read only where x >= y, sqrt(y - x) only where y >= x
    path = _expr_file(tmp_path, {"k1": "sqrt(x - y)", "k2": "sqrt(y - x)"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["det", "--kernel-file", path, "--scheme", "ngl", "--n", "16",
                            "--z", "1,0"], capsys)
    assert code == 0 and err == ""


@pytest.mark.parametrize("alpha, z", [(0.999, "0.001,0"), (0.3, "0.5,0")])
def test_weakly_singular_det_at_n512_takes_under_a_minute(alpha, z, tmp_path, capsys):
    # the product-quadrature moments come from a recurrence, however close alpha is to 1
    path = tmp_path / "abs_pow.json"
    path.write_text(json.dumps({"name": "abs_pow", "alpha": alpha}))
    start = time.perf_counter()
    code, _, _ = run(["det", "--kernel-file", str(path), "--scheme", "singular", "--n", "512",
                      "--z", z], capsys)
    assert code == 0 and time.perf_counter() - start < 60.0


def test_ncc_det_at_max_dim_matches_the_closed_form(capsys):
    start = time.perf_counter()
    code, out, _ = run(["det", "--kernel", "green", "--scheme", "ncc", "--n", str(MAX_DIM),
                        "--z", "3,0", "--format", "json"], capsys)
    assert code == 0 and time.perf_counter() - start < 60.0
    value = json.loads(out)["rows"][0]["value_re"]
    assert abs(value - math.sin(math.sqrt(3)) / math.sqrt(3)) <= 1e-7


def test_converge_at_large_z_against_its_closed_form_reference(capsys):
    # green ncc at z = 1500, where det_green is sin(w)/w exact to rounding
    code, out, _ = run(["converge", "--kernel", "green", "--scheme", "ncc",
                        "--n-sweep", "64:512:geometric", "--z", "1500", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    err = {row["n"]: row["abs_err"] for row in payload["rows"]}[512]
    (slope,) = payload["slopes"].values()
    assert err < 6e-3
    assert -3.3 <= slope <= -3.1


def test_converge_refuses_a_reference_past_the_double_range(capsys):
    # cosh(2z) overflows at z = 400, so no error can be measured against it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["converge", "--kernel", "sign", "--scheme", "rect", "--zero-diag",
                              "--p", "2", "--n-sweep", "8:64:geometric", "--z", "400"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("fredet: configuration: ") and err.count("\n") == 1
    assert "reference determinant is not finite" in err


def test_kernel_file_flow(tmp_path, capsys):
    cfg = tmp_path / "rank_one.json"
    cfg.write_text(json.dumps({"expr": {"k": "x*y"}, "domain": [0, 1]}))
    code, out, _ = run(["det", "--kernel-file", str(cfg), "--scheme", "ngl",
                        "--n", "20", "--z", "1,0"], capsys)
    assert code == 0
    # k = x*y has the single eigenvalue 1/3, so det(I - K) = 2/3
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert abs(value - 2.0 / 3.0) < 1e-10


@pytest.mark.parametrize("argv, code, stage, names", [
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "8"], 1, "configuration",
     "--z or --grid"),
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "1", "--z", "1,0"], 1,
     "configuration", "n must be >= 2"),
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--z", "a,b"], 1,
     "configuration", "--z expects numbers"),
    (["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "10-160",
      "--z", "1,0"], 1, "configuration", "--n-sweep expects A:B:geometric"),
    (["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "8",
      "--region", "1,0"], 1, "configuration", "--region expects CRE,CIM,RAD"),
    (["example", "--id", "4", "--out", "/dev/null/sub"], 2, "output", "/dev/null/sub"),
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--z", "1,2,3"], 1,
     "configuration", "--z expects RE or RE,IM"),
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--grid", "0,1,0,1"], 1,
     "configuration", "--grid expects RE0,RE1,IM0,IM1,STEPS"),
    (["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "64:8:geometric"], 1,
     "configuration", "--n-sweep needs 2 <= A <= B"),
    (["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--region=0,0,-1"], 1,
     "configuration", "--region radius must be positive"),
    (["identity", "--trials", "0"], 1, "configuration", "--trials must be >= 1"),
    # |det_1(I + 1e12 K)| is about exp(1201), past the double range
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "64", "--z=-1e12,0"], 2,
     "determinant evaluation", "out of double range"),
    (["det", "--kernel", "green", "--scheme", "ngl", "--n", "8", "--grid", "0,1,0,1,x"], 1,
     "configuration", "--grid STEPS expects integers"),
    (["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "8:x:geometric"], 1,
     "configuration", "--n-sweep A:B expects integers"),
    # abs_pow_iter2 is log-singular at x = y, which ngl puts on the diagonal
    (["det", "--kernel", "abs_pow_iter2", "--scheme", "ngl", "--n", "8", "--z", "1,0"], 1,
     "configuration", "--zero-diag"),
    # smooth ncc is Clenshaw-Curtis Nystrom, diagonal included, and takes no --zero-diag
    (["det", "--kernel", "abs_pow_iter2", "--scheme", "ncc", "--n", "8", "--z", "1,0"], 1,
     "configuration", "not finite on the diagonal x = y; ngl or rect with zero_diag"
                      " (--zero-diag) drop it"),
    # p is refused before the search, on a disc without zeros (|z| ~ 5000) as on one with
    (["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "16", "--region", "5000,0,10",
      "--p", "0"], 1, "configuration", "p must be a positive integer, got 0"),
    (["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "16", "--region", "12,0,8",
      "--p", "0"], 1, "configuration", "p must be a positive integer, got 0"),
], ids=[f"argv{i}" for i in range(18)])
def test_validation_failures_exit_one(argv, code, stage, names, capsys):
    # configuration errors exit 1, output and numerical errors 2, each as one
    # line under its stage prefix that names what was wrong
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"fredet: {stage}: ") and err.count("\n") == 1
    assert names in err


_DET = ["det", "--kernel", "green", "--scheme", "ngl", "--n", "8"]
_EIGS = ["eigs", "--kernel", "green", "--scheme", "ngl", "--n", "8"]


@pytest.mark.parametrize("argv", [
    _DET + ["--z", "nan"],
    _DET + ["--z", "inf,0"],
    _DET + ["--z", "0,-inf"],
    _DET + ["--grid", "0,nan,0,1,3"],
    ["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "8:64:geometric",
     "--z", "nan"],
    _EIGS + ["--region", "nan,0,5"],
    _EIGS + ["--region", "0,0,inf"],
], ids=["z_nan", "z_inf", "z_im_minus_inf", "grid_nan", "converge_z_nan", "region_center_nan",
        "region_radius_inf"])
def test_non_finite_numbers_exit_one(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fredet: configuration: ") and "finite numbers" in err


def _never(*args, **kwargs):
    raise AssertionError("called before the size was checked")


@pytest.mark.parametrize("argv, msg", [
    (_DET + ["--grid", f"0,1,0,1,{MAX_GRID_STEPS + 1}"], "must be in [1, "),
    (_DET + ["--grid", "0,1,0,1,0"], "must be in [1, "),
    (["identity", "--n", "0"], "must be in [1, "),
    (["identity", "--n", str(MAX_DIM + 1)], "must be in [1, "),
    (["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "1024:4096:geometric"],
     f"2 <= A <= B <= {MAX_DIM}"),
    (_DET + ["--z", "1,0", "--p", "0"], "p must be a positive integer, got 0"),
    (_DET + ["--grid", "0,1,0,1,8", "--p", "0"], "p must be a positive integer, got 0"),
    (["converge", "--kernel", "green", "--scheme", "ngl", "--n-sweep", "8:64:geometric",
      "--ref", "none", "--p", "0"], "p must be a positive integer, got 0"),
    (_EIGS + ["--region", "0,0,1", "--p", "0"], "p must be a positive integer, got 0"),
], ids=["grid_steps_past_cap", "grid_steps_zero", "identity_n_zero", "identity_n_past_max_dim",
        "sweep_past_max_dim", "det_z_p_zero", "det_grid_p_zero", "converge_p_zero",
        "eigs_p_zero"])
def test_sizes_out_of_range_exit_one_before_allocating(argv, msg, monkeypatch, capsys):
    # neither the matrix nor the random draws may be made before the check; a bad
    # --p too is refused before anything is assembled
    monkeypatch.setattr(fredet.cli, "assemble", _never)
    monkeypatch.setattr(np.random, "default_rng", _never)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fredet: configuration: ") and msg in err


def test_refinement_failure_exits_two(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RefinementError("polish did not converge")

    monkeypatch.setattr(fredet.cli, "locate_eigs", fail)
    assert main(_EIGS + ["--region", "12,0,8"]) == 2
    assert capsys.readouterr().err == "fredet: eigenvalue search: polish did not converge\n"


@pytest.mark.parametrize("cfg", [
    {"name": "abs_pow_iter2", "alpha": 0.3},
    {"name": "green", "domain": [0, 2]},
    {"expr": {"k": "x*y"}, "domain": [0, 1], "alpha": 0.3},
    {"expr": {"k": "x"}, "domain": [0, 1, 7]},
    {"name": "abs_pow", "alpha": "0.3"},
    {"expr": {"k": 5}, "domain": [0, 1]},
], ids=["alpha_on_iter2", "domain_on_named", "alpha_on_smooth_expr", "three_part_domain",
        "alpha_string", "expr_not_string"])
def test_kernel_file_refusals_exit_one(cfg, tmp_path, monkeypatch, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(fredet.cli, "assemble", _never)
    assert main(["det", "--kernel-file", str(path), "--scheme", "ngl", "--n", "8",
                 "--z", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fredet: configuration: ") and err.count("\n") == 1


_COMPLEX_K = {"expr": {"k": "x * (-1)**0.5"}, "domain": [0, 1]}


@pytest.mark.parametrize("cfg, scheme", [
    (_COMPLEX_K, "ngl"),
    (_COMPLEX_K, "rect"),
    (_COMPLEX_K, "ncc"),
    ({"expr": {"h": "x * (-1)**0.5"}, "domain": [0, 1], "alpha": 0.5}, "singular"),
    ({"expr": {"h": "log(x)"}, "domain": [0, 1], "alpha": 0.5}, "singular"),
    ({"expr": {"k1": "sqrt(x - y)", "k2": "sqrt(y - x)"}, "domain": [0, 1]}, "ncc"),
], ids=["complex_k_ngl", "complex_k_rect", "complex_k_ncc", "complex_h", "log_h", "sqrt_split_ncc"])
def test_kernel_values_that_are_complex_or_not_finite_exit_one(cfg, scheme, tmp_path, capsys):
    # a complex value would lose its imaginary part in the real K_N, a value that
    # is not finite would print numpy warnings: each is one configuration line
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["det", "--kernel-file", str(path), "--scheme", scheme, "--n", "8",
                              "--z", "1,0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("fredet: configuration: ") and err.count("\n") == 1


def _expr_file(tmp_path, expr):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"expr": expr, "domain": [0, 1]}))
    return str(path)


@pytest.mark.parametrize("expr, args", [
    ({"k": "1/0"}, []),
    ({"k": "0**-1"}, []),
    ({"k": "e**1000"}, []),
    ({"k": "10**400"}, []),
    ({"k": "x*" + "9" * 400}, []),
    ({"k": "sin()"}, []),
    ({"k": "sin(x, y)"}, []),
    ({"k": "sin(x, y, x)"}, []),
    ({"k": "-" * 5000 + "x"}, []),
    ({"k": "x" + "+x" * 200000}, []),
    ({"k": "-" * 100000 + "x"}, []),
    ({"k": "x+" * 199999 + "x"}, []),
    ({"k": "q" * 100000}, []),
    ({"k": '"' + "a" * 100000 + '"'}, []),
    ({"k1": "1/0", "k2": "x"}, ["--p", "2", "--scheme", "rect"]),
    ("missing.json", []),
    (".", []),
], ids=["one_over_zero", "zero_to_minus_one", "exp_overflow", "int_power_overflow",
        "int_literal_overflow", "call_no_argument", "call_two_arguments", "call_three_arguments",
        "minus_chain_5000", "plus_chain_200000", "minus_chain_100000", "plus_chain_199999",
        "long_name", "long_string", "split_one_over_zero", "missing_file", "directory"])
def test_bad_kernel_files_exit_one(expr, args, tmp_path, capsys):
    # each was a traceback, a numpy message or an output error (exit 2) before;
    # a string names a path under tmp_path instead of an expression.  The one
    # line stays short, whatever the length of the expression it refuses
    path = str(tmp_path / expr) if isinstance(expr, str) else _expr_file(tmp_path, expr)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["det", "--kernel-file", path, "--scheme", "ngl", "--n", "8",
                              "--z", "1,0", *args], capsys)
    assert time.perf_counter() - start < 10.0
    assert code == 1 and out == ""
    assert err.startswith("fredet: configuration: ") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 1024


@pytest.mark.parametrize("args, names", [
    (["--scheme", "ncc"], "ngl or rect with zero_diag (--zero-diag) drop it"),
    (["--scheme", "rect", "--p", "2"], "needs --zero-diag"),
], ids=["ncc", "rect_p2"])
@pytest.mark.parametrize("kernel", ["abs_pow_iter2", "log_expr"])
def test_smooth_kernels_not_finite_on_the_diagonal_are_refused_with_advice_that_holds(
        kernel, args, names, tmp_path, capsys):
    # the advice names only what the scheme takes: ncc takes no --zero-diag, and
    # p >= 2 on rect without it is the Hilbert-trick refusal
    source = (["--kernel", kernel] if kernel == "abs_pow_iter2"
              else ["--kernel-file", _expr_file(tmp_path, {"k": "log(abs(x - y))"})])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["det", *source, "--n", "8", "--z", "1,0", *args], capsys)
    assert code == 1 and out == ""
    assert err.startswith("fredet: configuration: ") and err.count("\n") == 1
    assert names in err


def test_power_tower_kernel_file_exits_one_quickly(tmp_path):
    # as Python integers 9**9**9 has 370 million digits; in float64 it is inf
    result = subprocess.run([sys.executable, "-W", "error", "-m", "fredet.cli", "det",
                             "--kernel-file", _expr_file(tmp_path, {"k": "9**9**9"}),
                             "--scheme", "ngl", "--n", "8", "--z", "1,0"],
                            env=_src_env(), capture_output=True, text=True, timeout=10)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("fredet: configuration: ") and result.stderr.count("\n") == 1
    assert len(result.stderr.encode("utf-8")) < 1024


def test_an_lu_that_overflows_exits_two_with_one_line(tmp_path):
    # z k2 = 1e10 * 1e308 leaves the double range as I + zK is formed; in a process
    # with the default warning filters no numpy warning precedes the refusal
    path = _expr_file(tmp_path, {"k1": "0 * x", "k2": "1e308 + 0 * x"})
    result = subprocess.run([sys.executable, "-m", "fredet.cli", "det", "--kernel-file", path,
                             "--scheme", "ngl", "--n", "8", "--z", "1e10,0"],
                            env=_src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("fredet: determinant evaluation: ")
    assert result.stderr.count("\n") == 1


def test_det_n_past_max_dim_exits_one(capsys):
    assert main(["det", "--kernel", "green", "--scheme", "ngl", "--n", str(MAX_DIM + 1),
                 "--z", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fredet: configuration: ") and f"exceeds MAX_DIM={MAX_DIM}" in err


def test_grid_steps_cap_is_inclusive():
    zs = _parse_grid(f"0,1,0,1,{MAX_GRID_STEPS}")
    assert len(zs) == MAX_GRID_STEPS**2 <= 1 << 16
    assert zs[0] == 0 and zs[-1] == 1 + 1j


def test_bad_usage_exits_one(capsys):
    for argv, error in (
        (["det", "--kernel", "notakernel", "--scheme", "ngl", "--n", "8", "--z", "1,0"],
         "invalid choice: 'notakernel'"),
        (["notacommand"], "invalid choice: 'notacommand'"),
        # flags a command does not read are refused, not dropped
        (["example", "--id", "2", "--format", "csv"], "unrecognized arguments: --format csv"),
        (_DET + ["--z", "5,0", "--grid", "0,1,0,0,2"], "argument --grid: not allowed with"),
        (_DET + ["--z", "1,0", "--sign", "x"], "argument --sign: expected + or -, got 'x'"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err.splitlines()[-1]
