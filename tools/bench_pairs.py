"""Alternated benchmark pairs of two source trees, summarized into one file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --runs runs.jsonl --out BENCH_20.json
    python3 tools/bench_pairs.py --runs runs.jsonl --summarize-only --out BENCH_20.json

Pair i runs `bench/run.py --workload W --seed S --seconds T` once in each
tree, the parent first in odd pairs and the change first in even pairs, so
neither side always runs on a warmer machine.  Each run gets a fresh copy
of its tree, made without .git, .hypothesis or __pycache__ and removed
afterwards: byte-identical trees in two directories run a few percent
apart, so a side kept in one directory would carry that directory's
offset on every pair.  Every run's JSON result is
appended to the --runs JSON-lines file, tagged with its side and pair, so
an interrupted series keeps what it ran and can be summarized later.

The summary reads the end-to-end metrics of the change tree's
BENCHMARK.json.  For each workload and metric it holds every run, by pair,
each side's median and quartiles, the change's median over the parent's,
the metric's bound, and how many pairs the change won (better in the
metric's direction), and whether the gap between the medians is larger
than the parent's interquartile range.  Two fields give the no-regression
verdict: `within_bound` holds when the change's median is no worse than
the parent's by more than the bound (a fraction of the parent's median),
and `unresolved` when the parent's interquartile range over its median
exceeds the bound while some change run fails to beat some parent run,
so the runs spread too widely to tell.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# what a run's copy of a tree leaves out
LEFT_OUT = (".git", ".hypothesis", "__pycache__")


def run_side(tree: Path, side: str, pair: int, args, runs_path: Path) -> bool:
    """Run bench/run.py once in a fresh copy of `tree` and append its
    tagged results to runs_path; True when every run it made was correct."""
    with tempfile.TemporaryDirectory(prefix=f"bench-{side}-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(*LEFT_OUT))
        out = Path(scratch) / "runs.jsonl"
        cmd = [
            sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", args.seed, "--seconds", str(args.seconds), "--out", str(out),
        ]
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
        lines = out.read_text().splitlines() if out.exists() else []
    with open(runs_path, "a") as fh:
        for line in lines:
            fh.write(json.dumps(dict(json.loads(line), side=side, pair=pair)) + "\n")
    if proc.returncode != 0:
        print(f"pair {pair} {side}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
    return proc.returncode == 0 and bool(lines)


def load_runs(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def summarize(runs: list, metrics: list) -> dict:
    """The per-workload, per-metric comparison of the parent and change
    runs; `metrics` is BENCHMARK.json's end_to_end list."""
    by_key = {(r["workload"], r["side"], r["pair"]): r for r in runs}
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    end_to_end = {}
    for wl in workloads:
        pairs = sorted({p for w, s, p in by_key if w == wl})
        end_to_end[wl] = {}
        for spec in metrics:
            name = spec["name"]

            def value(side, pair):
                run = by_key.get((wl, side, pair))
                got = run and run["metrics"].get(name)
                return got["value"] if got else None

            values = {s: [value(s, p) for p in pairs] for s in SIDES}
            both = [
                (pv, cv) for pv, cv in zip(values["parent"], values["change"])
                if pv is not None and cv is not None
            ]
            if not both:
                continue
            higher = spec["better"] == "higher"
            ps, cs = [p for p, _ in both], [c for _, c in both]
            parent, change = _stats(ps), _stats(cs)
            # how far the change's median trails the parent's; below 0 when ahead
            worse = (parent["median"] - change["median"]) * (1 if higher else -1)
            bound = spec.get("bound")
            spread = parent["iqr_over_median"]
            beats_all = min(cs) > max(ps) if higher else max(cs) < min(ps)
            end_to_end[wl][name] = {
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
                "better": spec["better"],
                "bound": bound,
                "pairs": len(both),
                "change_better_pairs": sum((c > p) if higher else (c < p) for p, c in both),
                "gap_beyond_parent_iqr": -worse > parent["q3"] - parent["q1"],
                "within_bound": None if bound is None else worse <= bound * parent["median"],
                "unresolved": None not in (bound, spread) and spread > bound and not beats_all,
                "runs": values,
            }
    return {
        "all_runs_correct": {s: all(r["correct"] for r in runs if r["side"] == s) for s in SIDES},
        "end_to_end": end_to_end,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="the parent source tree")
    p.add_argument("--change", type=Path, default=Path("."), help="the changed source tree")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--runs", type=Path, required=True, help="JSON-lines file of every run")
    p.add_argument("--summarize-only", action="store_true", help="summarize --runs, run nothing")
    p.add_argument("--note", default="", help="what the change is, recorded in the output")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)

    if not args.summarize_only:
        if args.parent is None:
            p.error("--parent is required unless --summarize-only")
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                ok = run_side(trees[side], side, pair, args, args.runs)
                print(f"pair {pair}/{args.pairs} {side}: {'correct' if ok else 'FAILED'}", flush=True)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "change": args.note,
        "command": (
            f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
            f"--seconds {args.seconds:g}, alternated pairs, parent first in odd pairs "
            "(tools/bench_pairs.py)"
        ),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "note": "every timing is rescaled to reference host speed by the in-sample probe "
        "(bench/probe.py); medians and quartiles over the pairs; runs lists every run, by pair",
        **summarize(load_runs(args.runs), metrics),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
