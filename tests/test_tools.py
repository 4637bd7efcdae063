"""tools/compare.py: its examples and stage-timing scripts run on this tree, and its
pair summary counts wins in each metric's direction."""

import importlib.util
import os
import sys

import pytest

from fredet import discretize, kernels, spectra

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare.py")


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
    out = compare.in_tree(compare.ROOT, compare._LOCATE, [case, 1, compare.LOCATE_MALLOPT])
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
    out = compare.in_tree(compare.ROOT, compare._EXAMPLES, [[2], 1])
    assert list(out) == ["2"]
    assert len(out["2"]) == 2 and all(t > 0 for t in out["2"])


def test_summarize_counts_wins_in_each_metric_direction(compare):
    parent = {"setup_s": 1.0, "wall_s": 1.0, "err_digits": 14.0, "peak_rss_mb": 80.0}
    change = dict(parent, wall_s=1.1, err_digits=14.5)
    summary = compare.summarize([{"parent": parent, "change": change}] * 2)
    assert summary["err_digits"]["change_won"] == "2/2"
    assert summary["wall_s"]["change_won"] == "0/2"
    assert summary["setup_s"]["change_won"] == "0/2"  # a tie is no win
    assert summary["wall_s"]["change"]["median"] == 1.1
