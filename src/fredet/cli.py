"""Command line surface: determinant grids, convergence sweeps, eigenvalue
location, identity checks, and the four packaged experiments.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""

import argparse
import sys

import numpy as np

from .determinants import _check_p, det_p, identity_residuals, prepare
from .discretize import SCHEMES, assemble
from .examples import (EXAMPLE_IDS, ROOT_CSV_HEADER, dump_json, resolved_slope, root_row,
                       roots_json, run_example, write_csv, write_summary)
from .kernels import KERNEL_NAMES, has_diagonal_jump, load_kernel_file, registry
from .linalg import MAX_DIM, DetOverflowError
from .references import REFERENCES
from .spectra import RefinementError, ZeroOnContourError, locate_eigs

# det evaluates more points than this through one Hessenberg reduction
# (determinants.prepare), fewer through one LU each.  Against a det_p at a
# complex z, single-threaded BLAS on a 2-core x86 machine, N = 32-800: the
# general reduction (green ncc) breaks even at 6-17 points, the tridiagonal
# one of a symmetric or skew Nystrom operator (green ngl), cheaper to make
# and O(N) per point after it, at 3-7
PREPARE_MIN_Z = 16

# --grid takes at most this many STEPS per axis, so at most 2^16 points
MAX_GRID_STEPS = 256


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented validation code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _fail(code, stage, exc):
    sys.stderr.write(f"fredet: {stage}: {exc}\n")
    return code


def _numbers(parts, field, text, kind=float):
    """parts as kind, float or int; a part that is not a finite number of that
    kind raises ValueError naming field."""
    try:
        vals = [kind(part) for part in parts]
    except ValueError:
        what = "numbers" if kind is float else "integers"
        raise ValueError(f"{field} expects {what}, got {text!r}") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{field} expects finite numbers, got {text!r}")
    return vals


def _parse_complex(text, field):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"{field} expects RE or RE,IM, got {text!r}")
    return complex(*_numbers(parts, field, text))


def _parse_sign(text):
    if text not in ("+", "-"):
        raise argparse.ArgumentTypeError(f"expected + or -, got {text!r}")
    return 1 if text == "+" else -1


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"--grid expects RE0,RE1,IM0,IM1,STEPS, got {text!r}")
    re0, re1, im0, im1 = _numbers(parts[:4], "--grid", text)
    steps, = _numbers(parts[4:], "--grid STEPS", text, int)
    if not 1 <= steps <= MAX_GRID_STEPS:
        raise ValueError(f"--grid STEPS must be in [1, {MAX_GRID_STEPS}], got {steps}")
    return [complex(re, im)
            for re in np.linspace(re0, re1, steps)
            for im in np.linspace(im0, im1, steps)]


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3 or parts[2] != "geometric":
        raise ValueError(f"--n-sweep expects A:B:geometric, got {text!r}")
    lo, hi = _numbers(parts[:2], "--n-sweep A:B", text, int)
    if not 2 <= lo <= hi <= MAX_DIM:  # refused before the smaller N are assembled and factored
        raise ValueError(f"--n-sweep needs 2 <= A <= B <= {MAX_DIM}, got {lo}:{hi}")
    ns = []
    n = lo
    while n <= hi:
        ns.append(n)
        n *= 2
    return ns


def _parse_region(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--region expects CRE,CIM,RAD, got {text!r}")
    cre, cim, rad = _numbers(parts, "--region", text)
    if rad <= 0:
        raise ValueError(f"--region radius must be positive, got {rad}")
    return complex(cre, cim), rad


def _resolve_kernel(args):
    if args.kernel_file:
        return load_kernel_file(args.kernel_file)
    return registry(args.kernel)


def _check_p_options(spec, args):
    # --p is refused before anything is assembled, in determinants' own words
    _check_p(args.p)
    if args.p >= 2 and args.scheme == "rect" and not args.zero_diag and has_diagonal_jump(spec):
        raise ValueError(
            "p >= 2 with the rectangle rule on a kernel that jumps across the "
            "diagonal needs --zero-diag: zeroing the diagonal makes the plain "
            "determinant track the 2-modified one (the Hilbert trick)")


def _resolve_reference(args, spec):
    name = args.ref if args.ref is not None else spec.name
    if name == "none":
        return None
    if name not in REFERENCES:
        known = ", ".join(sorted(REFERENCES))
        raise ValueError(
            f"no analytic reference for kernel {name!r} (known: {known}); "
            f"pass --ref none to omit the error columns")
    fn, ref_p = REFERENCES[name]
    if args.p != ref_p:
        raise ValueError(f"reference {name!r} is defined for p = {ref_p}, got --p {args.p}")
    return fn


def _emit(args, header, rows, payload):
    if args.format == "csv":
        write_csv(args.out or sys.stdout, header, rows)
    elif args.out:
        write_summary(args.out, payload)
    else:
        sys.stdout.write(dump_json(payload))


def _config_echo(args, spec, extra):
    return {"kernel": spec.name, "scheme": args.scheme, "p": args.p, "sign": args.sign,
            "zero_diag": args.zero_diag, **extra}


def cmd_det(args):
    spec = _resolve_kernel(args)
    _check_p_options(spec, args)
    if args.grid:
        zs = _parse_grid(args.grid)
    elif args.z:
        zs = [_parse_complex(args.z, "--z")]
    else:
        raise ValueError("det needs --z or --grid")
    op = assemble(spec, args.scheme, args.n, args.zero_diag)
    signed = [args.sign * z for z in zs]
    if len(zs) > PREPARE_MIN_Z:  # one Hessenberg reduction for all of them
        vals = prepare(op).values(args.p, signed).tolist()
    else:
        vals = [det_p(op, args.p, z).value for z in signed]
    rows = [(z.real, z.imag, v.real, v.imag, "LU_TRACE") for z, v in zip(zs, vals)]
    header = ["z_re", "z_im", "value_re", "value_im", "route"]
    payload = {"command": "det", "config": _config_echo(args, spec, {"n": args.n}),
               "rows": [dict(zip(header, r)) for r in rows]}
    _emit(args, header, rows, payload)
    return 0


def cmd_converge(args):
    spec = _resolve_kernel(args)
    _check_p_options(spec, args)
    ns = _parse_sweep(args.n_sweep)
    z = _parse_complex(args.z, "--z") if args.z else complex(1.0)
    ref = _resolve_reference(args, spec)
    vals = [det_p(assemble(spec, args.scheme, n, args.zero_diag), args.p, args.sign * z).value
            for n in ns]
    config = _config_echo(args, spec, {"n_values": ns, "z": [z.real, z.imag]})
    if ref is None:
        header = ["n", "value_re", "value_im"]
        rows = [(n, v.real, v.imag) for n, v in zip(ns, vals)]
        payload = {"command": "converge", "config": config,
                   "rows": [dict(zip(header, r)) for r in rows]}
        _emit(args, header, rows, payload)
        return 0
    target = ref(-args.sign * z)  # reference is in the det_p(I - zK) orientation
    errs = [abs(v - target) for v in vals]
    slope = resolved_slope(ns, errs, target)
    rows = [(n, e) for n, e in zip(ns, errs)]
    if slope is not None:
        rows.append(("slope", slope))
    payload = {"command": "converge", "config": config,
               "rows": [{"n": n, "abs_err": e} for n, e in zip(ns, errs)],
               "slopes": {} if slope is None else {f"{args.scheme}@z={z:.6g}": slope}}
    _emit(args, ["n", "abs_err"], rows, payload)
    return 0


def cmd_eigs(args):
    spec = _resolve_kernel(args)
    _check_p_options(spec, args)
    center, radius = _parse_region(args.region)
    op = assemble(spec, args.scheme, args.n, args.zero_diag)
    ests = locate_eigs(op, args.p, center, radius, sign=args.sign)
    payload = {"command": "eigs",
               "config": _config_echo(args, spec, {"n": args.n,
                                                   "region": [center.real, center.imag, radius]}),
               "roots": roots_json(ests)}
    _emit(args, ROOT_CSV_HEADER, map(root_row, ests), payload)
    return 0


_IDENTITY_ASSEMBLIES = (
    ("green", "ngl", 24, False),
    ("bernoulli", "ngl", 24, False),
    ("sign", "rect", 48, True),
    ("abs_pow", "singular", 24, False),
    ("abs_pow_iter2", "rect", 24, True),
)


def cmd_identity(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not 1 <= args.n <= MAX_DIM:
        raise ValueError(f"--n must be in [1, {MAX_DIM}], got {args.n}")
    rng = np.random.default_rng(args.seed)
    worst = {}
    for _ in range(args.trials):
        n = int(rng.integers(1, args.n + 1))
        a = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / (2 * np.sqrt(n))
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        for name, res in identity_residuals(a, z).items():
            worst[name] = max(worst.get(name, 0.0), res)
    for kname, scheme, n, zd in _IDENTITY_ASSEMBLIES:
        op = assemble(registry(kname), scheme, n, zd)
        for name, res in identity_residuals(op.matrix, 0.7 + 0.3j).items():
            worst[f"{kname}:{name}"] = res

    # jump-kernel cross-check: the square of the 2-modified determinant equals
    # the plain determinant of I - z^2 K^2, here (cosh(4z)+1)/2 at z = 0.5
    op = assemble(registry("sign"), "rect", 200, True)
    v = det_p(op, 2, -0.5).value
    closed = abs(v**2 - 0.5 * (np.cosh(2.0) + 1.0))
    rows = [(k, worst[k]) for k in sorted(worst)] + [("sign:closed_form_squared", closed)]
    ok = max(worst.values()) <= 1e-8 and closed <= 5e-2
    payload = {"command": "identity",
               "config": {"trials": args.trials, "n": args.n, "seed": args.seed},
               "residuals": dict(rows), "ok": ok}
    _emit(args, ["identity", "max_residual"], rows, payload)
    return 0 if ok else 2


def cmd_example(args):
    summary = run_example(args.id, args.out or ".")
    sys.stdout.write(dump_json(summary))
    return 0


def _add_common(sub, kernel=True):
    if kernel:
        grp = sub.add_mutually_exclusive_group(required=True)
        grp.add_argument("--kernel", choices=KERNEL_NAMES)
        grp.add_argument("--kernel-file", metavar="F")
        sub.add_argument("--scheme", choices=SCHEMES, required=True)
        sub.add_argument("--p", type=int, default=1)
        # parsed once into +1 or -1, the number every summary echoes
        sub.add_argument("--sign", type=_parse_sign, default="-", metavar="{+,-}")
        sub.add_argument("--zero-diag", action="store_true")
    sub.add_argument("--out", metavar="PATH")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = _Parser(prog="fredet",
                     description="p-modified Fredholm determinants of discretized "
                                 "integral operators")
    cmds = parser.add_subparsers(dest="command", required=True)

    det = cmds.add_parser("det", help="determinant values on points or grids")
    _add_common(det)
    det.add_argument("--n", type=int, required=True)
    points = det.add_mutually_exclusive_group()
    points.add_argument("--z", metavar="RE,IM")
    points.add_argument("--grid", metavar="RE0,RE1,IM0,IM1,STEPS")

    conv = cmds.add_parser("converge", help="error sweep against an analytic reference")
    _add_common(conv)
    conv.add_argument("--n-sweep", metavar="A:B:geometric", required=True)
    conv.add_argument("--z", metavar="RE,IM")
    conv.add_argument("--ref", metavar="NAME|none")

    eigs = cmds.add_parser("eigs", help="eigenvalues as reciprocal determinant zeros")
    _add_common(eigs)
    eigs.add_argument("--n", type=int, required=True)
    eigs.add_argument("--region", metavar="CRE,CIM,RAD", required=True)
    eigs.set_defaults(format="json")

    ident = cmds.add_parser("identity", help="determinant identity residuals")
    ident.add_argument("--trials", type=int, default=100)
    ident.add_argument("--n", type=int, default=8)
    ident.add_argument("--seed", type=int, default=42)
    _add_common(ident, kernel=False)

    ex = cmds.add_parser("example", help="run a packaged experiment")
    ex.add_argument("--id", type=int, choices=EXAMPLE_IDS, required=True)
    ex.add_argument("--out", metavar="DIR")

    return parser


_DISPATCH = {"det": cmd_det, "converge": cmd_converge, "eigs": cmd_eigs,
             "identity": cmd_identity, "example": cmd_example}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        return _fail(1, "configuration", exc)
    except DetOverflowError as exc:
        return _fail(2, "determinant evaluation", exc)
    except (RefinementError, ZeroOnContourError) as exc:
        return _fail(2, "eigenvalue search", exc)
    except OSError as exc:
        return _fail(2, "output", exc)


if __name__ == "__main__":
    sys.exit(main())
