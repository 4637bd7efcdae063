"""Compare this tree with another checkout: timings and alternating bench pairs.

Usage, from the repository root:

    python3 tools/compare.py [--parent DIR] [--pairs K] [--seed N] [--out FILE]

Every timing script and bench run goes in a fresh process per tree, with
single-threaded BLAS, in process pairs, the tree that goes first alternating
(alternate), so a pair compares two processes that ran back to back.  Every
timing and bench metric of the report is one summary: each tree's
per-process values, their median and quartiles, and with two trees the
median over the pairs of the ratio change / parent and the pairs the change
won in the metric's direction, a tie counting for neither side.  Timings are
better lower; the bench metrics and their directions are the end_to_end list
of the parent's BENCHMARK.json.
Each examples process (PAIRS pairs) runs every packaged example once as a
timed warm-up (the first example-4 run fills its cached N = 512 reference;
reported as first_run) and EXAMPLE_REPEATS more times, and keeps the min of
those repeats (repeat_min).  Each locate process (PAIRS pairs per case)
times locate_eigs on one of LOCATE_CASES, the many-root and large-N searches
that no benchmark workload covers (green ngl and sign rect at N = 400 and
1500 on a tridiagonal form, abs_pow singular and green ncc at N = 400 on the
full Hessenberg one), so no search runs on a heap that another search left:
one warm-up search, then LOCATE_REPEATS timed ones, each split into
reduction (determinants.prepare), sampling (hessenberg_logdet) and polish
(_polish) as seen through the names locate_eigs calls them by; the rest of a
search is its residuals and bookkeeping.  The process keeps each stage's min
over its runs, and the roots of both trees are compared.
Before timing, where glibc's mallopt can be reached, a locate process fixes
its mmap threshold at 32 MB and its trim threshold at 64 MB (LOCATE_MALLOPT),
so the N x N temporaries of a stage do not come back as fresh pages or not
depending on what the stage before freed; the report records the setting
each tree's processes ran with.
With --parent DIR (a checkout of another commit, holding src/, bench/ and
BENCHMARK.json) the parent is timed too, and with --pairs K (at least 2),
for each workload that the parent's BENCHMARK.json names, K alternating
pairs of ``bench/run.py --trace 0`` runs of that file's run_seconds are
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
PAIRS = 6
EXAMPLE_IDS = (1, 2, 3, 4)
EXAMPLE_REPEATS = 5
LOCATE_REPEATS = 3
# name: kernel, scheme, N, zero_diag, p, disc centre, disc radius
LOCATE_CASES = {
    "green_ngl_400": ("green", "ngl", 400, False, 1, 1500.0, 1499.0),
    "sign_rect_400": ("sign", "rect", 400, True, 2, 0.0, 1.2),
    "abs_pow_singular_400": ("abs_pow", "singular", 400, False, 3, 0.0, 1.5),
    "green_ncc_400": ("green", "ncc", 400, False, 1, 1500.0, 1499.0),
    "green_ngl_1500": ("green", "ngl", 1500, False, 1, 50.0, 49.0),
    "sign_rect_1500": ("sign", "rect", 1500, True, 2, 0.0, 1.2),
}
# glibc mallopt parameter numbers (malloc.h) and the values the locate processes set
LOCATE_MALLOPT = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}
LOCATE_STAGES = ("reduction_s", "sampling_s", "polish_s", "total_s")

# The scripts below run in the tree under test, so they call only names that the
# trees compared share.

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

case, repeats, settings = json.loads(sys.argv[1])
kernel, scheme, n, zero_diag, p, centre, radius = case
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
determinants.hessenberg_logdet = lambda h, zs: samples.append(len(zs)) or logdet(h, zs)

heap = pin_heap()
op = discretize.assemble(kernels.registry(kernel), scheme, n, zero_diag)
spectra.locate_eigs(op, p, centre, radius)
runs = []
for _ in range(repeats):
    spent.clear()
    samples.clear()
    t0 = time.perf_counter()
    ests = spectra.locate_eigs(op, p, centre, radius)
    runs.append(dict(spent, total_s=time.perf_counter() - t0))
print(json.dumps({"mallopt": heap, "runs": runs, "samples": sum(samples),
                  "roots": [[e.z_root.real, e.z_root.imag] for e in ests]}))
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


def in_tree(tree, *args):
    """Run the interpreter with args in a fresh process, from tree and on its src/, and
    return the JSON of its last output line.  Its stderr, a traceback where it fails,
    passes through."""
    done = subprocess.run([sys.executable, *args], env=_env(tree), cwd=tree,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def alternate(trees, run, pairs):
    """Per tree tag, the results of run(tree, k) for each pair k = 0 .. pairs - 1, the
    tree that runs first alternating: the first of trees when k is even."""
    results = {tag: [] for tag, _ in trees}
    for k in range(pairs):
        for tag, tree in (trees if k % 2 == 0 else trees[::-1]):
            results[tag].append(run(tree, k))
    return results


def summary(values, better):
    """Per tree, its per-process values, their median and their quartiles; with two trees,
    the median over the pairs of the ratio change / parent, and the pairs the change won
    in the direction better ("lower" or "higher"), a tie counting for neither side."""
    entry = {tag: {"median": statistics.median(v), "quartiles": statistics.quantiles(v, n=4),
                   "per_process": v} for tag, v in values.items()}
    if len(values) == 2:
        pairs = list(zip(values["parent"], values["change"]))
        won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        entry["ratio_median"] = statistics.median(c / p for p, c in pairs)
        entry["change_won"] = f"{won}/{len(pairs)}"
    return entry


def summary_of(by_tag, value, better="lower"):
    """The summary of value(result) over each tree's results."""
    return summary({tag: [value(res) for res in results] for tag, results in by_tag.items()},
                   better)


def example_report(by_tag):
    """Per example: the min of each process's repeats, and each process's first run."""
    return {i: {"repeat_min": summary_of(by_tag, lambda res: min(res[i][1:])),
                "first_run": summary_of(by_tag, lambda res: res[i][0])}
            for i in map(str, EXAMPLE_IDS)}


def locate_report(by_case):
    """Per case and stage: each process's min over its runs; each tree's sample and root
    counts, and, with two trees, the largest relative distance between their roots.
    Under "mallopt", each tree's heap settings, or None where a process could not set
    them."""
    first = next(iter(by_case.values()))
    report = {"mallopt": {tag: results[-1]["mallopt"] for tag, results in first.items()}}
    for case, by_tag in by_case.items():
        last = {tag: results[-1] for tag, results in by_tag.items()}
        entry = {s: summary_of(by_tag, lambda res: min(r[s] for r in res["runs"]))
                 for s in LOCATE_STAGES}
        entry.update({tag: {"samples": res["samples"], "roots": len(res["roots"])}
                      for tag, res in last.items()})
        if len(last) == 2:
            a, b = ([complex(*z) for z in res["roots"]] for res in last.values())
            entry["roots_max_rel"] = (max(abs(x - y) / abs(x) for x, y in zip(a, b))
                                      if len(a) == len(b) else None)
        report[case] = entry
    return report


def bench_run(tree, workload, seed, seconds, metrics):
    result = in_tree(tree, os.path.join(tree, "bench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0")
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            **{k: result["metrics"][k]["value"] for k in metrics}}


def bench_report(runs, metrics):
    """Per end-to-end metric of the contract, the summary of the runs in its direction."""
    return {key: summary_of(runs, lambda r: r[key], better) for key, better in metrics.items()}


def measure(trees, args):
    """The report: examples, locate stages and, for each workload of the parent's
    BENCHMARK.json, its bench runs and their summary.  It imports bench/run.py
    here, not at the tool's import, since that module sets BLAS thread variables."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from run import _environment  # the benchmark's record of numpy, BLAS and threads
    report = {"machine": _environment(args.seed)}
    examples = json.dumps([EXAMPLE_IDS, EXAMPLE_REPEATS])
    report["run_example_s"] = example_report(alternate(
        trees, lambda tree, k: in_tree(tree, "-c", _EXAMPLES, examples), PAIRS))
    report["locate_stages"] = locate_report(
        {case: alternate(trees, lambda tree, k: in_tree(
            tree, "-c", _LOCATE, json.dumps([spec, LOCATE_REPEATS, LOCATE_MALLOPT])), PAIRS)
         for case, spec in LOCATE_CASES.items()})
    if args.pairs:
        with open(os.path.join(dict(trees)["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            contract = json.load(fh)
        metrics = {m["name"]: m["better"] for m in contract["end_to_end"]}
        for w in (workload["name"] for workload in contract["workloads"]):
            runs = alternate(trees, lambda tree, k: bench_run(
                tree, w, args.seed + k, contract["run_seconds"], metrics), args.pairs)
            report[f"{w}_runs"] = runs
            report[f"{w}_summary"] = bench_report(runs, metrics)
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--pairs", type=int, default=0,
                    help="alternating run pairs per benchmark workload")
    ap.add_argument("--seed", type=int, default=401, help="seed of the first pair")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs and (not args.parent or args.pairs < 2):
        ap.error("--pairs needs --parent and at least 2 pairs")

    with tempfile.TemporaryDirectory(prefix="compare_") as copies:
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
