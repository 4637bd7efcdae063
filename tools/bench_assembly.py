"""Layer timings of the singular assembly, in-process example and locate_eigs
stage timings, optionally against another checkout, with alternating benchmark
pairs.

Usage, from the repository root:

    python3 tools/bench_assembly.py [--parent DIR] [--workloads W,...] [--pairs K]
                                    [--seconds S] [--seed N] [--out FILE]

Every timing script runs in a fresh process per tree, with single-threaded
BLAS, in PAIRS process pairs, the tree that goes first alternating, so a
pair compares two processes that ran back to back.  For each timing the
report gives each tree's per-process values and their median, and with two
trees the median over the pairs of the ratio change / parent and the pairs
the change won.  Each layers process times nine layers at N in
{64, 256, 512}, the first three at alpha in {0.3, 0.5}:

  singular_moments   the moments of all N rows of one matrix
  assemble_singular  the whole product-quadrature matrix of abs_pow(alpha)
  spectral_ops       the Chebyshev operators of size N
  lobatto_vander     the points, C and Cinv alone, as assemble_singular takes them
  assemble_ncc       the ncc matrix of bernoulli (smooth: Clenshaw-Curtis
                     Nystrom) and of green (split: spectral operators)
  plemelj_coeffs     the series of the bernoulli ncc matrix to min(N, 64)
                     terms, whose cost is its power traces
  assemble_nystrom   the plain Nystrom matrix of each of NYSTROM_CASES: two
                     smooth kernels (bernoulli ngl, abs_pow_iter2 rect with
                     zero_diag) and two split ones (green ngl, sign rect with
                     zero_diag)
  prepare            determinants.prepare at p = 1 of each of those matrices,
                     whose reductions are tridiagonal (three symmetric, sign
                     skew), and of GENERAL_CASES, which keep the full
                     Hessenberg form (abs_pow singular, green ncc); beside
                     each time, prepare_<case>_peak_n2, the peak that
                     tracemalloc records over one untimed call, in units of
                     N^2 entries of K (the matrix itself not counted)

Each layer is timed at least once and repeated, up to REPEATS times, while
its total stays under BUDGET_S seconds, and the process keeps the best time.
Each examples process runs every packaged example once as a timed warm-up
(the first example-4 run fills its cached N = 512 reference; reported as
first_runs) and EXAMPLE_REPEATS more times, and keeps the min of those
repeats.  Each locate process times locate_eigs on each of LOCATE_CASES, the
many-root and large-N searches that no benchmark workload covers (green ngl
and sign rect at N = 400 and 1500 on a tridiagonal form, abs_pow singular on
the full Hessenberg one): one warm-up search, then LOCATE_REPEATS timed
ones, each split into reduction (determinants.prepare), sampling
(hessenberg_logdet) and polish (_polish) as seen through the names
locate_eigs calls them by; the rest of a search is its residuals and
bookkeeping.  The process keeps each stage's min over its runs, and the
roots of both trees are compared.
Before timing, where glibc's mallopt can be reached, the process fixes its
mmap threshold at 32 MB and its trim threshold at 64 MB (LOCATE_MALLOPT),
so the N x N temporaries of a stage do not come back as fresh pages or not
depending on what the stage before freed; the report records the setting
each tree's processes ran with.
The grid fault probe counts the minor page faults (ru_minflt) of every
det_p of the first two bench ``grid`` passes, per surface and pass, in a
fresh process per tree and seed in GRID_FAULT_SEEDS, run as bench/run.py
runs them: set-up, the host probe, then the passes with a probe after each
segment.  It reports the mean and largest count per call, the calls above
one fault, and the counts of the first three calls.
With --parent DIR (a checkout of another commit, holding src/ and bench/)
the parent is timed too, and for each listed workload (default locate, grid
and converge) K alternating pairs of ``bench/run.py --trace 0`` runs are
recorded, the parent first in even pairs, seeds counting up from --seed.
Every script and run works on a copy of each tree's src/, bench/ and
BENCHMARK.json, made first, in sibling directories ``parent`` and ``change``
of one temporary directory: both trees then sit at paths of equal length,
on the same file system and equally fresh, so the placement of a checkout
does not read as a difference between the trees.
The JSON goes to --out, or to stdout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from run import _environment  # noqa: E402  the benchmark's record of numpy, BLAS and threads
NS = (64, 256, 512)
ALPHAS = (0.3, 0.5)
REPEATS = 3
BUDGET_S = 2.0
PAIRS = 6
EXAMPLE_IDS = (1, 2, 3, 4)
EXAMPLE_REPEATS = 5
LOCATE_REPEATS = 3
# name: kernel, scheme, N, zero_diag, p, disc centre, disc radius
LOCATE_CASES = {
    "green_ngl_400": ("green", "ngl", 400, False, 1, 1500.0, 1499.0),
    "sign_rect_400": ("sign", "rect", 400, True, 2, 0.0, 1.2),
    "abs_pow_singular_400": ("abs_pow", "singular", 400, False, 3, 0.0, 1.5),
    "green_ngl_1500": ("green", "ngl", 1500, False, 1, 50.0, 49.0),
    "sign_rect_1500": ("sign", "rect", 1500, True, 2, 0.0, 1.2),
}
# glibc mallopt parameter numbers (malloc.h) and the values the locate processes set
LOCATE_MALLOPT = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}
# name: kernel, quadrature rule, zero_diag
NYSTROM_CASES = {
    "bernoulli_ngl": ("bernoulli", "gauss_legendre", False),
    "green_ngl": ("green", "gauss_legendre", False),
    "sign_rect_zd": ("sign", "rectangle", True),
    "abs_pow_iter2_rect_zd": ("abs_pow_iter2", "rectangle", True),
}
# name: kernel, scheme; the operators of the prepare layer that take the general path
GENERAL_CASES = {
    "abs_pow_singular": ("abs_pow", "singular"),
    "green_ncc": ("green", "ncc"),
}
LOCATE_STAGES = ("reduction_s", "sampling_s", "polish_s", "total_s")
GRID_FAULT_SEEDS = range(1, 11)
END_TO_END = {"setup_s": "lower", "wall_s": "lower", "err_digits": "higher",
              "peak_rss_mb": "lower"}

# The scripts below run in the tree under test, so they call only names that the
# trees compared share.

_LAYERS = r"""
import json, sys, time, tracemalloc
from fredet import determinants, discretize, kernels, quadrature

ns, alphas, repeats, budget, nystrom, general = json.loads(sys.argv[1])

def best(fn):
    times = []
    while not times or (len(times) < repeats and sum(times) < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)

def prepared(row, name, op):
    # the peak of one untimed prepare in units of N^2 entries of K, then its best time
    size = op.matrix.size * op.matrix.itemsize
    tracemalloc.start()
    try:
        determinants.prepare(op, 1)
        row[f"prepare_{name}_peak_n2"] = tracemalloc.get_traced_memory()[1] / size
    finally:
        tracemalloc.stop()
    row[f"prepare_{name}_s"] = best(lambda: determinants.prepare(op, 1))

out = []
for alpha in alphas:
    spec = kernels.registry("abs_pow", {"alpha": alpha})
    for n in ns:
        nodes = quadrature.spectral_ops(n).points
        out.append({"alpha": alpha, "n": n,
                    "singular_moments_s": best(lambda: quadrature.singular_moments(alpha, nodes, n)),
                    "assemble_singular_s": best(lambda: discretize.assemble_singular(spec, n)),
                    "spectral_ops_s": best(lambda: quadrature.spectral_ops(n))})
smooth, split = kernels.registry("bernoulli"), kernels.registry("green")
for n in ns:
    op = discretize.assemble_ncc(smooth, n)
    out.append({"n": n,
                "lobatto_vander_s": best(lambda: quadrature.lobatto_vander(n)),
                "assemble_ncc_smooth_s": best(lambda: discretize.assemble_ncc(smooth, n)),
                "assemble_ncc_split_s": best(lambda: discretize.assemble_ncc(split, n)),
                "plemelj_coeffs_s": best(lambda: determinants.plemelj_coeffs(op, 1, min(n, 64)))})
for n in ns:
    row = {"n": n}
    for name, (kernel, rule, zero_diag) in nystrom.items():
        spec = kernels.registry(kernel)
        r = getattr(quadrature, rule)(n, *spec.domain)
        row[f"assemble_nystrom_{name}_s"] = best(
            lambda: discretize.assemble_nystrom(spec, r, zero_diag=zero_diag))
        prepared(row, name, discretize.assemble_nystrom(spec, r, zero_diag=zero_diag))
    for name, (kernel, scheme) in general.items():
        prepared(row, name, discretize.assemble(kernels.registry(kernel), scheme, n))
    out.append(row)
print(json.dumps(out))
"""


_EXAMPLES = r"""
import json, sys, tempfile, time
from fredet.examples import run_example

ids, repeats = json.loads(sys.argv[1])
out = {}
with tempfile.TemporaryDirectory() as outdir:
    for i in ids:
        t0 = time.perf_counter()
        run_example(i, outdir)
        times = [time.perf_counter() - t0]  # the first run, warm-up included
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_example(i, outdir)
            times.append(time.perf_counter() - t0)
        out[i] = times
print(json.dumps(out))
"""


_LOCATE = r"""
import ctypes, json, sys, time
from fredet import determinants, discretize, kernels, linalg, spectra

cases, repeats, settings = json.loads(sys.argv[1])
spent = {}
samples = []

def pin_heap():
    # the settings applied, or None where this process cannot reach mallopt
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if not all(mallopt(param, value) == 1 for param, value in settings.values()):
        return None
    return {name: value for name, (_, value) in settings.items()}

def timed(key, fn):
    def run(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
    return run

spectra.prepare = timed("reduction_s", spectra.prepare)
spectra._polish = timed("polish_s", spectra._polish)
logdet = timed("sampling_s", linalg.hessenberg_logdet)
# locate_eigs samples through determinants' name (PreparedDet.logdet)
determinants.hessenberg_logdet = lambda h, zs, *kind: samples.append(len(zs)) or logdet(h, zs, *kind)

out = {"mallopt": pin_heap(), "cases": {}}
for name, (kernel, scheme, n, zero_diag, p, centre, radius) in cases.items():
    op = discretize.assemble(kernels.registry(kernel), scheme, n, zero_diag)
    spectra.locate_eigs(op, p, centre, radius)
    runs = []
    for _ in range(repeats):
        spent.clear()
        samples.clear()
        t0 = time.perf_counter()
        ests = spectra.locate_eigs(op, p, centre, radius)
        runs.append(dict(spent, total_s=time.perf_counter() - t0))
    out["cases"][name] = {"runs": runs, "samples": sum(samples),
                          "roots": [[e.z_root.real, e.z_root.imag] for e in ests]}
print(json.dumps(out))
"""


_GRID_FAULTS = r"""
import json, resource, sys
sys.path.insert(0, "bench")
import run
seed = json.loads(sys.argv[1])
workloads = run._import_workloads()
wl = workloads.WORKLOADS["grid"]
inputs = wl.setup(seed)
probe = run.HostProbe()
probe()
with open("BENCHMARK.json", encoding="utf-8") as fh:
    json.load(fh)
import tracing
from fredet import determinants
tracer = tracing.Tracer()
faults = {}
det_p = determinants.det_p

def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return det_p(*args)
    finally:
        faults.setdefault(tracer.unit.split(":")[0], []).append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

determinants.det_p = counted
out = []
for _ in range(2):
    faults.clear()
    run._passes(wl.segments(inputs, tracer), probe, 0.0)
    out.append({surf: {"per_call": sum(f) / len(f), "max": max(f),
                       "over_1": sum(x > 1 for x in f), "first_calls": f[:3]}
                for surf, f in faults.items()})
print(json.dumps(out))
"""


# what the scripts and bench runs read from a tree
TREE_PARTS = ("src", "bench", "BENCHMARK.json")


def sibling_copy(tree, parent_dir, tag):
    """Copy TREE_PARTS of tree, without bytecode or bench output, to parent_dir/tag."""
    dest = os.path.join(parent_dir, tag)
    os.makedirs(dest)
    for part in TREE_PARTS:
        src = os.path.join(tree, part)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, part),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        else:
            shutil.copy2(src, dest)
    return dest


def _env(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    return env


def in_tree(tree, script, payload):
    """Run script in a fresh process on tree's src/, payload as its JSON argument,
    and return the JSON of its last output line."""
    done = subprocess.run([sys.executable, "-c", script, json.dumps(payload)], env=_env(tree),
                          cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def alternate(trees, script, payload, pairs=PAIRS):
    """Per tree tag, the results of script in each of pairs process pairs, the tree that
    goes first alternating."""
    results = {tag: [] for tag, _ in trees}
    for r in range(pairs):
        for tag, tree in (trees if r % 2 == 0 else trees[::-1]):
            results[tag].append(in_tree(tree, script, payload))
    return results


def paired(values):
    """Per tree, its per-process values and their median; with two trees, the median
    over the pairs of the ratio change / parent and the pairs the change won."""
    entry = {tag: {"median": statistics.median(v), "per_process": v} for tag, v in values.items()}
    if len(values) == 2:
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        entry["ratio_median"] = statistics.median(ratios)
        entry["change_won"] = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
    return entry


def layer_report(by_tag):
    """The layer rows, each timing paired across the processes of the trees, and each
    peak, which does not vary between processes, per tree from its first one."""
    first = next(iter(by_tag.values()))[0]

    def entry(i, k, v):
        if k.endswith("_s"):
            return paired({tag: [res[i][k] for res in results] for tag, results in by_tag.items()})
        if k.endswith("_peak_n2"):
            return {tag: results[0][i][k] for tag, results in by_tag.items()}
        return v

    return [{k: entry(i, k, v) for k, v in row.items()} for i, row in enumerate(first)]


def example_report(by_tag):
    """Per example: the min of each process's repeats, paired across the trees, and
    each tree's first runs."""
    report = {}
    for i in map(str, EXAMPLE_IDS):
        entry = paired({tag: [min(res[i][1:]) for res in results]
                        for tag, results in by_tag.items()})
        for tag, results in by_tag.items():
            entry[tag]["first_runs"] = [res[i][0] for res in results]
        report[i] = entry
    return report


def locate_report(by_tag):
    """Per case and stage: each process's min over its runs, paired across the trees;
    each tree's sample and root counts, and, with two trees, the largest relative
    distance between their roots.  Under "mallopt", each tree's heap settings, or
    None where a process could not set them."""
    report = {"mallopt": {tag: results[-1]["mallopt"] for tag, results in by_tag.items()}}
    for case in LOCATE_CASES:
        last = {tag: results[-1]["cases"][case] for tag, results in by_tag.items()}
        entry = {s: paired({tag: [min(r[s] for r in res["cases"][case]["runs"])
                                  for res in results]
                            for tag, results in by_tag.items()})
                 for s in LOCATE_STAGES}
        entry.update({tag: {"samples": res["samples"], "roots": len(res["roots"])}
                      for tag, res in last.items()})
        if len(last) == 2:
            a, b = ([complex(*z) for z in res["roots"]] for res in last.values())
            entry["roots_max_rel"] = (max(abs(x - y) / abs(x) for x, y in zip(a, b))
                                      if len(a) == len(b) else None)
        report[case] = entry
    return report


def bench_run(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, env=_env(tree), cwd=tree, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            **{k: result["metrics"][k]["value"] for k in END_TO_END}}


def summarize(pairs):
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for key, better in END_TO_END.items():
        sides = {tag: [p[tag][key] for p in pairs] for tag in ("parent", "change")}
        won = sum((c < p) if better == "lower" else (c > p)
                  for p, c in zip(sides["parent"], sides["change"]))
        out[key] = {tag: {"median": statistics.median(v),
                          "quartiles": statistics.quantiles(v, n=4)}
                    for tag, v in sides.items()}
        out[key]["change_won"] = f"{won}/{len(pairs)}"
    return out


def measure(trees, args):
    """The report: layers, examples, locate stages, grid faults and bench pairs."""
    layers = alternate(trees, _LAYERS, [NS, ALPHAS, REPEATS, BUDGET_S, NYSTROM_CASES,
                                        GENERAL_CASES])
    report = {"machine": _environment(args.seed), "layers": layer_report(layers)}
    report["run_example_s"] = example_report(
        alternate(trees, _EXAMPLES, [EXAMPLE_IDS, EXAMPLE_REPEATS]))
    report["locate_stages"] = locate_report(
        alternate(trees, _LOCATE, [LOCATE_CASES, LOCATE_REPEATS, LOCATE_MALLOPT]))
    report["grid_faults"] = {tag: {seed: in_tree(tree, _GRID_FAULTS, seed)
                                   for seed in GRID_FAULT_SEEDS} for tag, tree in trees}
    for w in filter(None, args.workloads.split(",")):
        pairs = []
        for k in range(args.pairs):
            pairs.append({tag: bench_run(tree, w, args.seed + k, args.seconds)
                          for tag, tree in (trees if k % 2 == 0 else trees[::-1])})
        if pairs:
            report[f"{w}_pairs"] = pairs
        if len(pairs) >= 2:
            report[f"{w}_summary"] = summarize(pairs)
    return report



def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--workloads", default="locate,grid,converge",
                    help="comma-separated bench workloads")
    ap.add_argument("--pairs", type=int, default=0, help="alternating run pairs per workload")
    ap.add_argument("--seconds", type=float, default=10.0, help="--seconds of each bench run")
    ap.add_argument("--seed", type=int, default=401, help="seed of the first pair")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs and not args.parent:
        ap.error("--pairs needs --parent")

    with tempfile.TemporaryDirectory(prefix="bench_assembly_") as copies:
        sources = [("parent", args.parent)] if args.parent else []
        trees = [(tag, sibling_copy(tree, copies, tag))
                 for tag, tree in sources + [("change", ROOT)]]
        report = measure(trees, args)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
