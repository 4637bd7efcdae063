"""Acceptance gate: one test per shipped claim, each `pytest -v` line is the verdict.

Criteria 2 through 6 consume the session-scoped example fixtures from
conftest.py, so each packaged experiment runs exactly once per session.
"""

import numpy as np

from fredet.determinants import (det_from_eigs, det_p, det_series_eval,
                                 identity_residuals, plemelj_coeffs)
from fredet.discretize import assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import eigenvalues, trace_powers
from fredet.quadrature import (gauss_legendre, rectangle, singular_moments,
                               spectral_ops)
from fredet.references import det_green


def test_criterion_1_finite_dimensional_exactness():
    # 200 seeded complex matrices, n <= 8, |z| <= 2: the three determinant
    # routes agree to 1e-8 relative, the p = 1 coefficient series terminates
    # at the matrix dimension (|a_n| <= 1e-10 past it), the order-chain
    # relation and the even/odd factorization identities hold to 1e-10.
    rng = np.random.default_rng(20260822)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        a = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / (2.0 * np.sqrt(n))
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        if abs(z) > 2:
            z *= 2.0 / abs(z)
        lam = eigenvalues(a)
        nu = trace_powers(a, 4)

        for p in (1, 2, 3):
            v_lu = det_p(a, p, z).value
            v_se = det_series_eval(plemelj_coeffs(a, p, 48), z).value
            v_ei = det_from_eigs(lam, p, z).value
            scale = max(abs(v_lu), abs(v_se), abs(v_ei), 1e-300)
            worst = max(abs(v_lu - v_se), abs(v_lu - v_ei), abs(v_se - v_ei)) / scale
            assert worst <= 1e-8, (trial, n, p, z, worst)

        tail = np.abs(plemelj_coeffs(a, 1, n + 8)[n + 1:]).max()
        assert tail <= 1e-10, (trial, n, tail)

        for p in (2, 3, 4):
            lhs = det_p(a, p, z).value
            rhs = det_p(a, p - 1, z).value * np.exp((-z) ** (p - 1) * nu[p - 2] / (p - 1))
            assert abs(lhs - rhs) / max(abs(lhs), 1e-300) <= 1e-10, (trial, p)

        assert max(identity_residuals(a, z).values()) <= 1e-10, trial


def test_criterion_2_example1_rates(ex1):
    # derivative-jump kernel: both Nystrom-Gauss-Legendre points converge at
    # second order, and the analytic reference at z = 1 is sin(1)
    slopes = ex1["summary"]["slopes"]
    assert -2.5 <= slopes["ngl@z=9.8696"] <= -1.6, slopes
    assert -2.5 <= slopes["ngl@z=1"] <= -1.6, slopes
    assert "ncc@z=1" in slopes and "ncc@z=9.8696" in slopes
    assert abs(det_green(1.0) - 0.8414710) < 1e-6
    assert abs(det_green(1.0) - np.sin(1.0)) < 1e-14


def test_criterion_3_example2_rates(ex2):
    # smooth periodic kernel: fourth order at the double root, second order
    # at a generic point for both the plain and split-kernel discretizations
    slopes = ex2["summary"]["slopes"]
    assert -4.6 <= slopes["ngl@z=39.4784"] <= -3.4, slopes
    assert -2.5 <= slopes["ngl@z=1"] <= -1.6, slopes
    assert -2.5 <= slopes["ncc@z=1"] <= -1.6, slopes


def test_criterion_4_example3_surface(ex3):
    # jump kernel, zero-diagonal rectangle rule, p = 2: first-order decay of
    # the max grid error, tr(K_N^2) near -4, and faster convergence at the
    # determinant root than at a generic point
    summary = ex3["summary"]
    slopes = summary["slopes"]
    assert -1.5 <= slopes["surface"] <= -0.6, slopes
    assert summary["residuals"]["trace_k2_at_400"] <= 0.1, summary["residuals"]
    root_slope = slopes["rect@z=0+0.785398j"]
    generic_slope = slopes["rect@z=1"]
    assert root_slope <= generic_slope - 0.5, slopes


def test_criterion_5_example4_consistency(ex4):
    # weakly singular kernel |x-y|^(-1/2): the iterated-kernel determinant route
    # converges (monotone errors, slope near -1).  On the z grid of (0, 1] the
    # routes are then held to what the method promises at N = 64:
    # (i) the five-eigenvalue surrogate of the det_3 pair
    #     det_3(I - zK_64) det_3(I + zK_64) is within the spectral tail bound
    #     expm1(tau), tau = sum_{n>5} |z l_n|^4 / (2 (1 - |z l_n|^2)), of the
    #     full pair, up to rounding;
    # (ii) inside the zero-free disc |z| rho(K_64) < 1 the full pair and the
    #     iterated route det_2(I - z^2 K_2) agree to 5e-2.  Beyond that disc the
    #     rectangle rule's shift of the K_2 spectrum moves the zeros of the
    #     iterated route, so no fixed absolute bound holds there.
    summary = ex4["summary"]
    errs = [summary["residuals"]["iterated_errs"][str(n)] for n in (32, 64, 128, 256)]
    assert errs[0] > errs[1] > errs[2] > errs[3], errs
    assert -1.4 <= summary["slopes"]["rect_iter2@z=0.01"] <= -0.6, summary["slopes"]

    res = summary["residuals"]
    lam = eigenvalues(assemble_singular(registry("abs_pow"), 64).matrix)
    rho = abs(lam[0])
    assert abs(res["zero_free_radius"] * rho - 1.0) <= 1e-12, res["zero_free_radius"]
    zs = [z for z, _ in summary["config"]["z_points"]]
    assert len(zs) == 11 and 0.0 < min(zs) and max(zs) == 1.0, zs
    keys = [format(z, ".6g") for z in zs]
    u = [np.abs(z * lam[5:]) ** 2 for z in zs]
    assert max(v.max() for v in u) < 1.0, "the tail bound needs |z l_6| < 1 on the grid"
    bounds = [np.expm1(np.sum(v * v / (2.0 * (1.0 - v)))) for v in u]
    inside = [z * rho < 1.0 for z in zs]
    table = "\n".join(
        f"z={k}: truncation {res['truncation_by_z'][k]:.4g} (bound {b:.4g}), "
        f"cross-route {res['cross_route_by_z'][k]:.4g}{' (zero-free disc)' if d else ''}"
        for k, b, d in zip(keys, bounds, inside))
    assert any(inside), f"no grid z inside the zero-free disc |z| < {1.0 / rho:.4g}"
    for k, b, d in zip(keys, bounds, inside):
        assert res["truncation_by_z"][k] <= b * (1.0 + 1e-9) + 1e-12, (
            f"(i) five-eigenvalue surrogate exceeds the tail bound at z={k}\n{table}")
        assert not d or res["cross_route_by_z"][k] <= 5e-2, (
            f"(ii) full det_3 pair and iterated route disagree at z={k}, inside the "
            f"zero-free disc |z| < {1.0 / rho:.4g}\n{table}")


def test_criterion_6_eigenvalue_localization(ex1, ex2, ex3):
    # located determinant zeros against both the analytic eigenvalues and a
    # dense eigensolver on the same assemblies at N = 512
    roots1 = sorted(r["z_re"] for r in ex1["summary"]["roots"])
    targets = [np.pi**2, 4 * np.pi**2, 9 * np.pi**2]
    assert len(roots1) == 3, roots1
    for got, want in zip(roots1, targets):
        assert abs(got - want) / want <= 5e-3, (got, want)
    green512 = assemble_nystrom(registry("green"), gauss_legendre(512, 0.0, 1.0))
    oracle = (1.0 / eigenvalues(green512.matrix)[:3]).real
    for got, want in zip(roots1, sorted(oracle)):
        assert abs(got - want) / want <= 5e-3, (got, want)

    # the N = 128 matrix splits the double eigenvalue into two close roots,
    # and each is located on its own
    roots2 = sorted((complex(r["z_re"], r["z_im"]) for r in ex2["summary"]["roots"]),
                    key=lambda w: w.real)
    assert len(roots2) == 2, ex2["summary"]["roots"]
    assert sum(r["mult_estimate"] for r in ex2["summary"]["roots"]) == 2, ex2["summary"]["roots"]
    target = 4 * np.pi**2
    bern128 = assemble_nystrom(registry("bernoulli"), gauss_legendre(128, 0.0, 1.0))
    own = sorted(1.0 / eigenvalues(bern128.matrix)[:2], key=lambda w: w.real)
    for got, want_z in zip(roots2, own):
        assert abs(got - target) / target <= 1e-2, got
        assert abs(got - want_z) / abs(want_z) <= 1e-8, (got, want_z)
    bern512 = assemble_nystrom(registry("bernoulli"), gauss_legendre(512, 0.0, 1.0))
    lam = eigenvalues(bern512.matrix)
    assert abs(lam[0] - lam[1]) / abs(lam[0]) <= 1e-3  # double eigenvalue
    for got in roots2:
        assert abs(got.real - (1.0 / lam[0]).real) / target <= 1e-2, got

    roots3 = sorted((complex(r["z_re"], r["z_im"]) for r in ex3["summary"]["roots"]),
                    key=lambda w: w.imag)
    assert len(roots3) == 2, roots3
    want = np.pi / 4.0
    assert abs(roots3[0] - (-1j * want)) / want <= 2e-2
    assert abs(roots3[1] - 1j * want) / want <= 2e-2
    sign512 = assemble_nystrom(registry("sign"), rectangle(512, -1.0, 1.0), zero_diag=True)
    pair = sorted((1.0 / eigenvalues(sign512.matrix)[:2]), key=lambda w: w.imag)
    for got, want_z in zip(roots3, pair):
        assert abs(got - want_z) / abs(want_z) <= 2e-2, (got, want_z)


def test_criterion_7_quadrature_spectral_machinery():
    # Gauss-Legendre exact through degree 2n-1; spectral integration matrices
    # exact through degree n-2; singular moments exact in the symmetric cases
    for n in (2, 5, 8, 20):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(rule.weights @ rule.nodes**k - exact) <= 1e-12, (n, k)

    for n in (6, 12):
        ops = spectral_ops(n)
        left = ops.C @ ops.Sl @ ops.Cinv
        right = ops.C @ ops.Sr @ ops.Cinv
        x = ops.points
        for k in range(n - 1):
            lo = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            hi = (1.0 - x ** (k + 1)) / (k + 1)
            assert np.max(np.abs(left @ x**k - lo)) <= 1e-10, (n, k)
            assert np.max(np.abs(right @ x**k - hi)) <= 1e-10, (n, k)

    center = singular_moments(0.5, 0.0, 8)
    assert np.max(np.abs(center[1::2])) <= 1e-10
    assert abs(center[0] - 4.0) <= 1e-10
    assert abs(center[2] + 12.0 / 5.0) <= 1e-10
    edge = singular_moments(0.5, 1.0, 2)
    assert abs(edge[0] - 2.0 * np.sqrt(2.0)) <= 1e-10
    assert abs(edge[1] - 2.0 * np.sqrt(2.0) / 3.0) <= 1e-10
