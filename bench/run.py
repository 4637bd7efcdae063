"""fredet benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload locate|grid|converge --seed N --seconds S --trace 0|1

The seed drives only the generated inputs. The run sets up the workload,
repeats timed passes for S seconds, then computes independent references and
checks every pass. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detail object with the environment, all six end-to-end metrics, the failed
units and per-workload notes. With --trace 1 the metrics are the per-layer
ones from one traced set-up plus pass, and the spans go to bench/out/.

BLAS runs single-threaded unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set: with one thread the pass times vary much less from run to run.

"failed" counts units that raise or fail their check for a reason other than
a documented baseline defect; "correct" is true when there are none. Units
that fail by a documented defect are counted in fail_frac and listed by name
in the detail line.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 4  # extra set-ups, each in a fresh process, so set-up includes the import
# the probe's time on the 2-vCPU VM the benchmark was tuned on, when that host was quiet;
# timed metrics are reported at this host speed
PROBE_REF_S = 0.015
END_TO_END = ("setup_s", "wall_s", "work_per_s", "fail_frac", "err_digits", "peak_rss_mb")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("locate", "grid", "converge"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up and probe times (for repeat set-ups)")
    return ap.parse_args(argv)


def _import_workloads():
    """Import the workloads, and with them fredet from this checkout's src/ only."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    import fredet
    if not os.path.abspath(fredet.__file__).startswith(src + os.sep):
        raise ImportError(f"fredet was imported from {fredet.__file__}, not from {src}")
    return workloads


def _child_setup(args):
    """(set-up seconds, probe seconds) of one set-up in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup_s, probe_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(probe_s)


def _blas_info():
    """BLAS vendor from numpy's build config; thread count from the loaded library."""
    import ctypes
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["blas_threads"] = threads
    return info


def _environment(seed):
    import platform
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed}
    env.update(_blas_info())
    env.update({k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if k in os.environ})
    return env


class HostProbe:
    """A fixed numpy task that does not touch fredet; its time reads the host's current speed.

    100 LU factorizations of a 64 x 64 and 3 of a 256 x 256 complex matrix,
    about 15 ms on the 2-vCPU VM the benchmark was tuned on.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._slogdet = np.linalg.slogdet
        self._small = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(100):
            self._slogdet(self._small)
        for _ in range(3):
            self._slogdet(self._big)
        return time.perf_counter() - t0


def _passes(segments, probe, budget_s):
    """Timed passes until budget_s has elapsed (at least one).

    Returns the pass times, per pass a {segment: (seconds, probe seconds)}
    dict, where the probe time is the mean of the probes run just before and
    just after the segment, and per pass its output.
    """
    walls, laps, outs = [], [], []
    start = time.perf_counter()
    before = probe()
    while True:
        lap, out = {}, {}
        for name, segment in segments:
            t0 = time.perf_counter()
            out.update(segment())
            dt = time.perf_counter() - t0
            after = probe()
            lap[name] = (dt, (before + after) / 2)
            before = after
        walls.append(sum(dt for dt, _ in lap.values()))
        laps.append(lap)
        outs.append(out)
        if time.perf_counter() - start >= budget_s:
            return walls, laps, outs


def _rescaled_pass(laps):
    """One pass's time at the reference host speed.

    Each segment's time is divided by the probe time around it, the median
    of these ratios is taken across passes, and the sum over the segments is
    scaled back to seconds by PROBE_REF_S.
    """
    return PROBE_REF_S * sum(statistics.median(lap[seg][0] / lap[seg][1] for lap in laps)
                             for seg in laps[0])


def _unit_summary(checks):
    units = [u for units in checks for u in units]
    failed = [u for u in units if not u.ok]
    unexpected = [u for u in failed if not u.known]
    errs = [u.err for u in units if u.ok and not math.isnan(u.err)]
    worst = max(errs, default=math.nan)
    listed = {}
    for u in failed:
        listed.setdefault(u.uid, {"unit": u.uid, "known": u.known, "reason": u.reason,
                                  "passes": 0})["passes"] += 1
    return {
        "attempted": len(units),
        "failed": len(unexpected),
        "fail_frac": len(failed) / len(units),
        "passing_per_pass": (len(units) - len(failed)) / len(checks),
        "err_digits": -math.log10(max(worst, 1e-16)) if errs else 0.0,
        "worst_rel_err": worst,
        "failures": list(listed.values()),
    }


def main(argv=None):
    args = _parse(argv)
    t_begin = time.perf_counter()
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import fredet from {os.path.join(ROOT, 'src')}: {exc}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - t_begin
    probe = HostProbe()
    first_setup = (setup_s, probe())
    if args.setup_only:
        print(*map(repr, first_setup))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    import tracing

    tracer = tracing.Tracer()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, laps, outs = _passes(wl.segments(inputs, tracer), probe, budget)
    wall_s = _rescaled_pass(laps)
    # before the references and the traced pass, so neither counts in the program's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up is an end-to-end metric, so traced runs do not repeat it
    setups = [first_setup] + ([] if args.trace else
                             [_child_setup(args) for _ in range(SETUP_REPEATS)])

    if args.trace:
        tracer.install()
        try:
            traced_inputs = wl.setup(args.seed, wrap_spec=tracer.wrap_spec)
            probe_before = probe()
            t0 = time.perf_counter()
            traced_out = workloads.run_pass(wl, traced_inputs, tracer)
            t1 = time.perf_counter()
            traced_s = PROBE_REF_S * (t1 - t0) / ((probe_before + probe()) / 2)
        finally:
            tracer.uninstall()

    ref = wl.reference(inputs)
    checks = [wl.check(inputs, out, ref) for out in outs]
    if args.trace:
        checks.append(wl.check(traced_inputs, traced_out, ref))
        n_roots = wl.n_roots(ref) if hasattr(wl, "n_roots") else 0
        values = tracing.layer_metrics(tracer.spans, traced_s, wall_s, n_roots)
        values["trace.coverage"] = tracing.coverage(tracer.spans, t0, t1)
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        tracer.write(os.path.join(BENCH_DIR, "out", f"spans-{args.workload}.csv"))
        wanted = contract["per_layer"]
    else:
        values = {}
        wanted = contract["end_to_end"]

    summary = _unit_summary(checks)
    values.update({
        "setup_s": statistics.median(PROBE_REF_S * t / pr for t, pr in setups),
        "wall_s": wall_s,
        "work_per_s": summary["passing_per_pass"] / wall_s,
        "fail_frac": summary["fail_frac"],
        "err_digits": summary["err_digits"],
        "peak_rss_mb": peak_rss_mb,
    })
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(args.seed),
        "passes": len(walls), "pass_wall_s": walls,
        "setup_s_samples": [t for t, _ in setups],
        "probe_s": {"setup": [pr for _, pr in setups],
                    "passes": statistics.median(pr for lap in laps for _, pr in lap.values())},
        "end_to_end": {k: values[k] for k in END_TO_END},
        "units": {k: summary[k] for k in ("attempted", "failed", "fail_frac", "worst_rel_err")},
        "failures": summary["failures"],
        "notes": wl.notes(inputs, outs[-1], ref),
    }
    print(json.dumps(detail, default=str))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
