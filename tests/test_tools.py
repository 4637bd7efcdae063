"""tools/compare.py: its examples and stage-timing scripts and its bench runs go through
one runner, its pairs alternate, and its reports summarize every timing alike and count
wins in each metric's direction, on synthetic results with no process started."""

import importlib.util
import json
import os
import sys

import pytest

from fredet import discretize, kernels, spectra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare.py")


@pytest.fixture(scope="module")
def compare():
    # importing the tool leaves the interpreter as it was: bench/run.py, which sets
    # BLAS thread variables, is imported only when a report is measured
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert dict(os.environ) == environ
    assert sys.path == path
    # the tool's own standard-library imports may load; nothing else may
    loaded = {m for m in set(sys.modules) - modules
              if m.split(".")[0] not in sys.stdlib_module_names}
    assert not loaded
    assert "run" not in sys.modules
    return module


def test_locate_script_times_each_stage_of_a_search_on_this_tree(compare):
    case = ("green", "ngl", 64, False, 1, 50.0, 49.0)
    out = compare.in_tree(compare.ROOT, "-c", compare._LOCATE,
                          json.dumps([case, 1, compare.LOCATE_MALLOPT]))
    (run,) = out["runs"]
    for stage in compare.LOCATE_STAGES:
        assert run[stage] > 0, stage
    assert out["samples"] > 0
    kernel, scheme, n, zero_diag, p, centre, radius = case
    op = discretize.assemble(kernels.registry(kernel), scheme, n, zero_diag)
    expected = [e.z_root for e in spectra.locate_eigs(op, p, centre, radius)]
    got = [complex(*z) for z in out["roots"]]
    assert len(got) == len(expected) > 0
    for a, b in zip(got, expected):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_examples_script_times_an_example_on_this_tree(compare):
    # a timed first run and one repeat of example 2
    out = compare.in_tree(compare.ROOT, "-c", compare._EXAMPLES, json.dumps([[2], 1]))
    assert list(out) == ["2"]
    assert len(out["2"]) == 2 and all(t > 0 for t in out["2"])


def test_in_tree_reads_the_last_json_line_and_lets_stderr_through(compare, capfd):
    code = "import sys; print('a line'); print('a note', file=sys.stderr); print('[1]')"
    assert compare.in_tree(compare.ROOT, "-c", code) == [1]
    assert capfd.readouterr().err == "a note\n"


def test_a_bench_run_goes_through_the_same_runner(compare, monkeypatch):
    seen = []
    metrics = {name: {"value": 1.5} for name in _contract()}
    result = {"correct": True, "failed": 0, "metrics": dict(metrics, other={"value": 0})}
    monkeypatch.setattr(compare, "in_tree", lambda tree, *args: seen.append((tree, args)) or result)
    assert compare.bench_run("T", "grid", 7, 25, _contract()) == {
        "seed": 7, "correct": True, "failed": 0, **{name: 1.5 for name in _contract()}}
    assert seen == [("T", (os.path.join("T", "bench", "run.py"), "--workload", "grid",
                           "--seed", "7", "--seconds", "25", "--trace", "0"))]


def test_alternate_runs_the_first_tree_first_in_even_pairs(compare):
    order = []
    results = compare.alternate([("parent", "P"), ("change", "C")],
                                lambda tree, k: order.append((tree, k)) or 10 * k, 3)
    assert order == [("P", 0), ("C", 0), ("C", 1), ("P", 1), ("P", 2), ("C", 2)]
    assert results == {"parent": [0, 10, 20], "change": [0, 10, 20]}


def test_summary_counts_wins_in_each_metric_direction(compare):
    values = {"parent": [1.0, 2.0, 4.0, 8.0], "change": [0.5, 2.0, 5.0, 16.0]}
    lower, higher = compare.summary(values, "lower"), compare.summary(values, "higher")
    assert lower["change_won"] == "1/4" and higher["change_won"] == "2/4"  # a tie is no win
    assert lower["ratio_median"] == higher["ratio_median"] == 1.125
    assert lower["change"] == {"median": 3.5, "quartiles": [0.875, 3.5, 13.25],
                               "per_process": values["change"]}
    assert set(compare.summary({"change": [1.0, 2.0]}, "lower")) == {"change"}


def _contract():
    """The end-to-end metrics of this tree's BENCHMARK.json and their directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def _synthetic(compare, tags):
    """Per-process results of the examples and locate scripts and of bench runs, as the
    tool reads them, for each tree in tags; the change's values are 0.9 times the
    parent's and its roots move by 1e-12."""
    scale = {"parent": 1.0, "change": 0.9}
    procs = range(4)
    examples = {tag: [{str(i): [scale[tag] * (i + k + 1.0) for k in range(3)]
                       for i in compare.EXAMPLE_IDS} for _ in procs] for tag in tags}
    locate = {case: {tag: [{"mallopt": None, "samples": 128,
                            "roots": [[1.0 + (tag == "change") * 1e-12, 0.0]],
                            "runs": [{s: scale[tag] * (j + 1.0) for s in compare.LOCATE_STAGES}
                                     for j in range(2)]} for _ in procs] for tag in tags}
              for case in compare.LOCATE_CASES}
    bench = {tag: [{"seed": 401 + k, "correct": True, "failed": 0,
                    **{m: scale[tag] * (k + 1.0) for m in _contract()}} for k in procs]
             for tag in tags}
    return (compare.example_report(examples), compare.locate_report(locate),
            compare.bench_report(bench, _contract()))


@pytest.mark.parametrize("tags", [("change",), ("parent", "change")], ids=["one", "two"])
def test_every_timing_of_the_reports_has_the_same_keys(compare, tags):
    examples, locate, bench = _synthetic(compare, tags)
    assert list(examples) == [str(i) for i in compare.EXAMPLE_IDS]
    assert list(bench) == list(_contract())
    entries = [e for per_example in examples.values() for e in per_example.values()]
    entries += [locate[case][s] for case in compare.LOCATE_CASES for s in compare.LOCATE_STAGES]
    entries += list(bench.values())
    keys = set(tags) | ({"ratio_median", "change_won"} if len(tags) == 2 else set())
    for entry in entries:
        assert set(entry) == keys
        for tag in tags:
            assert set(entry[tag]) == {"median", "quartiles", "per_process"}
            assert len(entry[tag]["per_process"]) == 4
    # example 1's runs read 2, 3 and 4 times the tree's scale; each stage's runs 1 and 2
    assert examples["1"]["first_run"]["change"]["median"] == pytest.approx(0.9 * 2.0)
    assert examples["1"]["repeat_min"]["change"]["median"] == pytest.approx(0.9 * 3.0)
    assert locate["mallopt"] == {tag: None for tag in tags}
    for case in compare.LOCATE_CASES:
        assert locate[case]["reduction_s"]["change"]["median"] == pytest.approx(0.9)
        assert all(locate[case][tag] == {"samples": 128, "roots": 1} for tag in tags)
        if len(tags) == 2:
            assert locate[case]["roots_max_rel"] == pytest.approx(1e-12, rel=1e-3)
        else:
            assert "roots_max_rel" not in locate[case]
    if len(tags) == 2:
        assert all(e["ratio_median"] == pytest.approx(0.9) for e in entries)


def test_the_bench_summary_counts_wins_in_the_contract_direction(compare):
    # the change is 0.9 times the parent on every metric: a win where lower is better,
    # a loss where higher is
    _, _, bench = _synthetic(compare, ("parent", "change"))
    contract = _contract()
    assert "higher" in contract.values() and "lower" in contract.values()
    for name, better in contract.items():
        assert bench[name]["change_won"] == ("4/4" if better == "lower" else "0/4"), name
