"""Checks of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

1. BENCHMARK.json is well formed and names exactly the metrics run.py emits.
2. Every workload runs untraced and traced, on two seeds, and reports all of
   its metrics with correct=true.
3. Two traced runs of locate with the same seed report identical
   deterministic counts (det_p calls, det evaluations inside count_zeros and
   refine_zero); a mismatch is reported, since it means BLAS rounding
   changes the search path.
4. In a directory holding only BENCHMARK.json and bench/, run.py exits
   non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import END_TO_END  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, PER_LAYER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def results(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    expect(set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in contract[key]]
    expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
           "metric and workload names are valid and unique")
    expect(all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in contract[key]), "units are valid")
    expect(all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"]),
           "setup_s has the largest bound")
    expect({m["name"] for m in contract["end_to_end"]} <= set(END_TO_END),
           "end_to_end metrics are ones run.py measures")
    expect(tuple(m["name"] for m in contract["per_layer"]) == PER_LAYER,
           "per_layer metrics match tracing.PER_LAYER")
    return contract


def check_workloads(contract):
    for wl in [w["name"] for w in contract["workloads"]]:
        for seed in (1, 2):
            for trace in (0, 1):
                proc = run(wl, seed, trace)
                ok = proc.returncode == 0
                expect(ok, f"{wl} seed {seed} trace {trace} exits 0")
                if not ok:
                    print(proc.stderr[-2000:])
                    continue
                detail, result = results(proc)
                wanted = contract["per_layer" if trace else "end_to_end"]
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                       and set(result["metrics"]) == {m["name"] for m in wanted},
                       f"{wl} seed {seed} trace {trace} reports exactly its metrics")
                expect(result["correct"] and result["attempted"] >= 1,
                       f"{wl} seed {seed} trace {trace} is correct")
                expect(set(detail["end_to_end"]) == set(END_TO_END)
                       and detail["environment"]["seed"] == seed,
                       f"{wl} seed {seed} trace {trace} detail has all six metrics and the seed")


def check_determinism():
    counts = []
    for _ in range(2):
        proc = run("locate", 7, 1)
        if proc.returncode != 0:
            expect(False, "traced locate run exits 0")
            return
        metrics = results(proc)[1]["metrics"]
        counts.append({k: metrics[k]["value"] for k in DETERMINISTIC_COUNTS})
    print("     counts:", counts)
    expect(counts[0] == counts[1], "locate counts repeat exactly for a fixed seed")


def check_without_program():
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("grid", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main():
    contract = check_contract()
    check_without_program()
    check_determinism()
    check_workloads(contract)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
