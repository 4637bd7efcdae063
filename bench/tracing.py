"""In-memory span tracing of fredet's public functions, and per-layer metrics.

A Tracer wraps each traced function at every module attribute that holds it
(``fredet.spectra.det_p`` as well as ``fredet.determinants.det_p``), so calls
made inside the library are seen as well as calls made by the benchmark.
Each span records name, start, end, parent span, unit id, the exception it
raised (if any) and one extra count (bytes, points). Spans stay in memory
and are written out once, at the end of the run.
"""

import csv
import dataclasses
import functools
import math
import sys
import time

# layer -> public functions wrapped in that layer's module
TRACED = {
    "spectra": ("locate_eigs", "count_zeros", "refine_zero"),
    "determinants": ("det_p", "plemelj_coeffs", "det_series_eval", "det_from_eigs",
                     "identity_residuals"),
    "linalg": ("as_complex_matrix", "trace_powers", "eigenvalues"),
    "discretize": ("assemble_nystrom", "assemble_ncc", "assemble_singular"),
    "quadrature": ("gauss_legendre", "spectral_ops", "singular_moments"),
}

# per-layer metrics; their units and directions are in BENCHMARK.json
PER_LAYER = (
    "spectra.locate_eigs.calls", "spectra.locate_eigs.self_s",
    "spectra.count_zeros.calls", "spectra.count_zeros.self_s", "spectra.count_zeros.det_evals",
    "spectra.count_zeros.empty_frac", "spectra.count_zeros.zero_on_contour",
    "spectra.refine_zero.calls", "spectra.refine_zero.self_s", "spectra.refine_zero.det_evals",
    "spectra.refine_zero.errors",
    "spectra.det_evals_per_root",
    "determinants.det_p.calls", "determinants.det_p.self_s", "determinants.det_p.us_per_call",
    "determinants.det_p.gflop",
    "determinants.plemelj_coeffs.self_s", "determinants.det_series_eval.self_s",
    "determinants.det_from_eigs.self_s", "determinants.identity_residuals.self_s",
    "linalg.as_complex_matrix.calls", "linalg.as_complex_matrix.self_s",
    "linalg.as_complex_matrix.bytes",
    "linalg.trace_powers.calls", "linalg.trace_powers.self_s",
    "linalg.eigenvalues.calls", "linalg.eigenvalues.self_s",
    "discretize.assemble_nystrom.calls", "discretize.assemble_nystrom.self_s",
    "discretize.assemble_ncc.calls", "discretize.assemble_ncc.self_s",
    "discretize.assemble_singular.calls", "discretize.assemble_singular.self_s",
    "quadrature.gauss_legendre.calls", "quadrature.gauss_legendre.self_s",
    "quadrature.spectral_ops.calls", "quadrature.spectral_ops.self_s",
    "quadrature.singular_moments.calls", "quadrature.singular_moments.self_s",
    "kernels.eval.points", "kernels.eval.self_s",
    "trace.overhead_frac", "trace.coverage",
)

# counts that must repeat exactly for a fixed seed
DETERMINISTIC_COUNTS = ("determinants.det_p.calls", "spectra.count_zeros.det_evals",
                        "spectra.refine_zero.det_evals")

NAME, START, END, PARENT, UNIT, ERROR, EXTRA = range(7)


def _lu_gflop(args, kwargs, result):
    """Computed operation count of the complex LU inside one det_p call."""
    op = args[0] if args else kwargs["op"]
    z = args[2] if len(args) > 2 else kwargs["z"]
    if complex(z) == 0:
        return 0.0
    n = getattr(op, "matrix", op).shape[0]
    return 8.0 / 3.0 * n**3 / 1e9


def _nbytes(args, kwargs, result):
    return result.nbytes


def _points(args, kwargs, result):
    return getattr(result, "size", 1)


def _returned(args, kwargs, result):
    return result


_EXTRA = {"determinants.det_p": _lu_gflop, "linalg.as_complex_matrix": _nbytes,
          "spectra.count_zeros": _returned}


class Tracer:
    """Records spans of wrapped calls; ``unit`` tags spans with the unit in progress."""

    def __init__(self):
        self.spans = []
        self.unit = ""
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit, "", 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    rec[EXTRA] = extra(args, kwargs, result)
                return result
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self):
        """Replace every module attribute bound to a traced function by its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fredet" or name.startswith("fredet."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"fredet.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original, _EXTRA.get(f"{layer}.{fname}"))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def wrap_spec(self, spec):
        """A copy of a KernelSpec whose callables record ``kernels.eval`` spans."""
        fields = {f: self.wrap("kernels.eval", getattr(spec, f), _points)
                  for f in ("k1", "k2", "h") if getattr(spec, f) is not None}
        return dataclasses.replace(spec, **fields)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "unit", "error", "extra"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                            s[PARENT], s[UNIT], s[ERROR], s[EXTRA]])


def layer_metrics(spans, pass_wall_s, untraced_wall_s, n_roots):
    """Per-layer metrics of one traced pass (plus its traced set-up)."""
    calls, self_s, extra, errors = {}, {}, {}, {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    evals_under = {"spectra.count_zeros": 0, "spectra.refine_zero": 0, "spectra.locate_eigs": 0}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (s[END] - s[START]) - child[i]
        extra[name] = extra.get(name, 0.0) + s[EXTRA]
        if s[ERROR]:
            errors[(name, s[ERROR])] = errors.get((name, s[ERROR]), 0) + 1
        if name == "determinants.det_p":
            seen = set()
            p = s[PARENT]
            while p >= 0:
                anc = spans[p][NAME]
                if anc in evals_under and anc not in seen:
                    evals_under[anc] += 1
                    seen.add(anc)
                p = spans[p][PARENT]

    out = {}
    for metric in PER_LAYER:
        parts = metric.split(".")
        fn, field = ".".join(parts[:2]), parts[2] if len(parts) > 2 else ""
        if field == "calls":
            out[metric] = calls.get(fn, 0)
        elif field == "self_s":
            out[metric] = self_s.get(fn, 0.0)
    n_det = calls.get("determinants.det_p", 0)
    n_count = calls.get("spectra.count_zeros", 0)
    empty = sum(1 for s in spans if s[NAME] == "spectra.count_zeros" and not s[ERROR]
                and s[EXTRA] == 0)
    out.update({
        "spectra.count_zeros.det_evals": evals_under["spectra.count_zeros"],
        "spectra.count_zeros.empty_frac": empty / n_count if n_count else 0.0,
        "spectra.count_zeros.zero_on_contour": errors.get(("spectra.count_zeros",
                                                           "ZeroOnContourError"), 0),
        "spectra.refine_zero.det_evals": evals_under["spectra.refine_zero"],
        "spectra.refine_zero.errors": sum(v for (n, _), v in errors.items()
                                          if n == "spectra.refine_zero"),
        "spectra.det_evals_per_root": (evals_under["spectra.locate_eigs"] / n_roots
                                       if n_roots else 0.0),
        "determinants.det_p.us_per_call": (1e6 * self_s.get("determinants.det_p", 0.0) / n_det
                                           if n_det else 0.0),
        "determinants.det_p.gflop": extra.get("determinants.det_p", 0.0),
        "linalg.as_complex_matrix.bytes": int(extra.get("linalg.as_complex_matrix", 0)),
        "kernels.eval.points": int(extra.get("kernels.eval", 0)),
        "trace.overhead_frac": pass_wall_s / untraced_wall_s - 1.0,
    })
    return out


def coverage(spans, pass_start, pass_end):
    """Share of the pass's wall time covered by top-level spans."""
    covered = sum(s[END] - s[START] for s in spans
                  if s[PARENT] < 0 and s[START] >= pass_start and s[END] <= pass_end)
    return covered / (pass_end - pass_start) if pass_end > pass_start else math.nan
