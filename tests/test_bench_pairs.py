"""tools/bench_pairs.py: the summary step, on a synthetic JSON-lines file
of alternated runs, and the copy of a tree each run gets."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "inst_per_s", "better": "higher", "bound": 0.15},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def _run(side, pair, rate, setup, correct=True):
    return {
        "workload": "w", "seed": 1, "trace": 0, "size": "full",
        "side": side, "pair": pair, "correct": correct,
        "attempted": 10, "failed": 0 if correct else 1,
        "metrics": {"inst_per_s": {"value": rate, "unit": "inst/s"},
                    "setup_s": {"value": setup, "unit": "s"}},
    }


def test_summary_reads_medians_quartiles_and_wins(tmp_path):
    parent = [100, 104, 96, 102, 98]
    change = [150, 99, 160, 155, 158]
    setups = [(0.02, 0.03), (0.02, 0.01), (0.02, 0.02), (0.02, 0.01), (0.02, 0.01)]
    path = tmp_path / "runs.jsonl"
    with open(path, "w") as fh:
        for pair, (p, c, (sp, sc)) in enumerate(zip(parent, change, setups), 1):
            # the change runs first in even pairs
            order = [("parent", p, sp), ("change", c, sc)]
            for side, rate, setup in order if pair % 2 else order[::-1]:
                fh.write(json.dumps(_run(side, pair, rate, setup, correct=pair != 3 or side == "change")) + "\n")
    doc = bench_pairs.summarize(bench_pairs.load_runs(path), METRICS)
    assert doc["all_runs_correct"] == {"parent": False, "change": True}
    rate = doc["end_to_end"]["w"]["inst_per_s"]
    assert rate["runs"] == {"parent": parent, "change": change}
    assert rate["parent"]["median"] == 100 and rate["change"]["median"] == 155
    # exclusive quartiles of 96, 98, 100, 102, 104
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (97, 103)
    assert rate["parent"]["iqr_over_median"] == 0.06
    assert rate["pairs"] == 5 and rate["change_better_pairs"] == 4
    assert rate["change_over_parent"] == 1.55 and rate["bound"] == 0.15
    assert rate["gap_beyond_parent_iqr"] is True
    assert rate["within_bound"] is True and rate["unresolved"] is False
    # lower is better: the change won the three pairs where it was faster
    setup = doc["end_to_end"]["w"]["setup_s"]
    assert setup["change_better_pairs"] == 3 and setup["better"] == "lower"
    assert setup["gap_beyond_parent_iqr"] is True  # 0.01 below an IQR of 0


def _verdict(parent, change, setup=(0.1, 0.1)):
    """The inst_per_s and setup_s summaries of pairs of these rates."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        runs += [_run("parent", pair, p, setup[0]), _run("change", pair, c, setup[1])]
    doc = bench_pairs.summarize(runs, METRICS)["end_to_end"]["w"]
    return doc["inst_per_s"], doc["setup_s"]


def test_verdict_inside_the_bound():
    # 10% slower against a bound of 15%, over a tight parent
    rate, setup = _verdict([99, 100, 100, 100, 101], [89, 90, 90, 90, 91])
    assert rate["change_better_pairs"] == 0
    assert rate["within_bound"] is True and rate["unresolved"] is False
    # equal setups: no worse at all
    assert setup["within_bound"] is True and setup["unresolved"] is False


def test_verdict_outside_the_bound():
    # 20% slower in rate and 50% slower in setup, against 15% and 25%
    rate, setup = _verdict([99, 100, 100, 100, 101], [79, 80, 80, 80, 81], (0.02, 0.03))
    assert rate["within_bound"] is False and rate["unresolved"] is False
    assert setup["within_bound"] is False and setup["unresolved"] is False


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    # the parent's quartiles 70 and 130 spread 60% of its median 100
    parent = [60, 100, 140, 80, 120]
    rate, _ = _verdict(parent, [110, 100, 150, 90, 120])
    assert rate["parent"]["iqr_over_median"] == 0.6
    assert rate["within_bound"] is True and rate["unresolved"] is True
    # a change whose every run beats every parent run is resolved however
    # wide the parent spreads
    rate, _ = _verdict(parent, [150, 160, 170, 180, 190])
    assert rate["within_bound"] is True and rate["unresolved"] is False


def test_summary_skips_a_pair_missing_one_side(tmp_path):
    runs = [_run("parent", 1, 10, 0.1), _run("change", 1, 12, 0.1), _run("parent", 2, 11, 0.1)]
    doc = bench_pairs.summarize(runs, METRICS)
    rate = doc["end_to_end"]["w"]["inst_per_s"]
    assert rate["pairs"] == 1 and rate["runs"] == {"parent": [10, 11], "change": [12, None]}
    assert rate["parent"]["median"] == 10 and rate["change_better_pairs"] == 1


def test_each_run_gets_a_fresh_copy_of_its_tree(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    (tree / "bench" / "__pycache__").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text("")
    for left_out in (".git", ".hypothesis", "__pycache__"):
        (tree / left_out).mkdir()
    seen = []

    def run(cmd, cwd, **kwargs):
        cwd = Path(cwd)
        seen.append((cwd, sorted(str(p.relative_to(cwd)) for p in cwd.rglob("*"))))
        out = Path(cmd[cmd.index("--out") + 1])
        out.write_text(json.dumps(_run("parent", 0, 10, 0.1)) + "\n")
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    args = argparse.Namespace(workload="w", seed="1", seconds=1)
    runs = tmp_path / "runs.jsonl"
    for pair in (1, 2):
        assert bench_pairs.run_side(tree, "parent", pair, args, runs)
    (first, listed), (second, again) = seen
    # two pairs run in two directories, neither the tree itself, and each
    # copy is gone once its run is over
    assert first != second and tree not in (first, second)
    assert listed == again == ["bench", "bench/run.py"]
    assert not first.exists() and not second.exists()
    assert [r["pair"] for r in bench_pairs.load_runs(runs)] == [1, 2]
