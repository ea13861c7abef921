"""Search-throughput benchmark for cdlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1,2,3 --out runs.jsonl
    python3 bench/run.py --quick

Untraced (--trace 0), a run repeats rounds of two fresh-interpreter
samples of the workload's search through cdlab.run_search, one at
workers=1 and one at workers=2, until another round would end after
--seconds, and reports the medians of the end-to-end metrics.  Traced
(--trace 1), it runs the workload's traced spec once with spans around
every layer boundary and once without, then repeats layer microbenchmarks
in fresh interpreters until --seconds are up, and reports the per-layer
metrics.  Every timing is rescaled to a reference host speed measured by
probe.py inside the sample.

Either way every sample's output is checked apart from the library:
closed-form instance counts, no violations where none may exist, replay and
brute-force confirmation of each conjecture counterexample, identical
stable reports across worker counts, and a seeded sample of instances
recomputed from the definitions.  The last line on stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Operations are
search instances plus the oracle sample; a failed operation is one that
raised or whose output disagreed with a check.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import WORKLOADS, decode, describe, encode, factors_of  # noqa: E402

CHILD_TIMEOUT_S = 150

END_TO_END = {
    "inst_per_s": "inst/s",
    "inst_per_s_w2": "inst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "search.self_us_per_inst": "us",
    "search.checker_calls": "count",
    "search.family_build_us": "us",
    "theorems.self_us_per_inst": "us",
    "theorems.theorem_us": "us",
    "theorems.udt_us": "us",
    "theorems.conjecture3_us": "us",
    "theorems.hs_us": "us",
    "setops.us_per_inst": "us",
    "setops.decodes_per_inst": "count",
    "setops.generated_sym_calls": "count",
    "setops.sumset_zmod_us": "us",
    "setops.from_mask_us": "us",
    "setops.sumset_size_zmod_us": "us",
    "setops.sumset_product_us": "us",
    "setops.union_us": "us",
    "gamma.us_per_inst": "us",
    "gamma.gamma_set_calls": "count",
    "gamma.ord_elem_calls": "count",
    "gamma.gamma_set_cold_us": "us",
    "gamma.gamma_set_warm_us": "us",
    "ambient.product_add_us": "us",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, ops: int, why: str):
        self.failed += ops
        self.problems.append(why)
        print(f"FAIL ({ops} ops): {why}", file=sys.stderr)


def _child(job: dict):
    """Run one job in a fresh interpreter: (result, None), or (None, why)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), None


def _search_sample(wl, size, seed, workers, trace, tally, label):
    """One checked search sample; returns its result, or None if it failed."""
    want_checked, want_skipped = wl.expected_counts(size)
    ops = want_checked + want_skipped
    tally.attempted += ops
    job = {"task": "search", "spec": wl.spec(size, seed, workers), "trace": trace}
    res, err = _child(job)
    if res is None:
        tally.fail(ops, f"{label}: {err}")
        return None
    if (res["checked"], res["skipped"]) != (want_checked, want_skipped):
        tally.fail(
            ops,
            f"{label}: checked/skipped {res['checked']}/{res['skipped']}, "
            f"closed form {want_checked}/{want_skipped}",
        )
        return None
    bad = _unconfirmed_violations(wl, res["violations"])
    if bad:
        tally.fail(bad, f"{label}: {bad} violations not confirmed")
        return None
    return res


def _unconfirmed_violations(wl, violations) -> int:
    """Violations are wrong except for a conjecture counterexample that
    replays identically and that brute force confirms."""
    if wl.checker != "conjecture":
        return len(violations)
    from cdlab import replay

    bad = 0
    for inst in violations:
        try:
            ok, verdict = replay(inst)
        except Exception as exc:  # any raise is a failed operation
            print(f"replay of {inst} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            bad += 1
            continue
        m = factors_of(inst["ambient"])
        sets = [{decode(m, v) for v in s} for s in inst["sets"]]
        brute = oracle.conjecture(m, *sets)
        if ok is not False or verdict != inst["verdict"] or brute["holds"] or any(
            verdict[k] != brute[k] for k in ("lhs", "rhs")
        ):
            bad += 1
    return bad


def _same_report(a, b, tally, label):
    if a is not None and b is not None and a["digest"] != b["digest"]:
        ops = b["checked"] + b["skipped"]
        tally.fail(ops, f"{label}: stable_json differs between the two samples")


def _oracle_sample(wl, size, seed, tally):
    """Recompute a seeded sample of instances from the definitions and
    compare with the checker's verdict as replay reports it."""
    from cdlab import replay

    for m, sets in wl.sample_instances(seed, size):
        tally.attempted += 1
        inst = {
            "ambient": describe(m),
            "checker": wl.checker,
            "sets": [[encode(m, e) for e in s] for s in sets],
        }
        try:
            _, verdict = replay(inst)
        except Exception as exc:  # any raise is a failed operation
            tally.fail(1, f"oracle sample {inst}: {type(exc).__name__}: {exc}")
            continue
        diff = oracle.disagreement(wl.checker, m, sets, verdict)
        if diff:
            tally.fail(1, f"oracle sample {inst}: {diff}")


def _median(values):
    return statistics.median(values) if values else None


def _rounds(started, seconds, one_round):
    """Run whole rounds until one more would likely end more than `seconds`
    after `started`; always at least one."""
    while True:
        t = time.monotonic()
        if one_round() is False:
            return
        now = time.monotonic()
        if now - started + (now - t) > seconds:
            return


def run_untraced(wl, size, seed, seconds, tally):
    """(end-to-end metrics, rounds run)."""
    samples = {1: [], 2: []}

    def one_round():
        w1 = _search_sample(wl, size, seed, 1, False, tally, "workers=1")
        w2 = _search_sample(wl, size, seed, 2, False, tally, "workers=2")
        _same_report(w1, w2, tally, "workers=1 vs workers=2")
        for w, res in ((1, w1), (2, w2)):
            if res is not None:
                samples[w].append(res)

    _rounds(time.monotonic(), seconds, one_round)
    both = samples[1] + samples[2]
    print(
        f"{wl.name:22s} unnormalized medians: "
        f"inst_per_s {_median([r['raw_inst_per_s'] for r in samples[1]])}, "
        f"inst_per_s_w2 {_median([r['raw_inst_per_s'] for r in samples[2]])}, "
        f"setup_s {_median([r['raw_setup_s'] for r in both])}; "
        f"host speed {_median([r['speed'] for r in both])} of reference"
    )
    return {
        "inst_per_s": _median([r["inst_per_s"] for r in samples[1]]),
        "inst_per_s_w2": _median([r["inst_per_s"] for r in samples[2]]),
        "setup_s": _median([r["setup_s"] for r in both]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in samples[1]]),
    }, len(samples[1])


def run_traced(wl, size, seed, seconds, tally):
    """(per-layer metrics, microbenchmark rounds run)."""
    started = time.monotonic()
    family = wl.families[size]
    if size == "full":
        size = "trace"
    traced = _search_sample(wl, size, seed, 1, True, tally, "traced")
    plain = _search_sample(wl, size, seed, 1, False, tally, "untraced")
    _same_report(traced, plain, tally, "traced vs untraced")
    metrics = {}
    if traced is not None and plain is not None:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    micro = []

    def one_round():
        res, err = _child({"task": "micro", "seed": seed, "family": family})
        if res is None:
            tally.fail(0, f"microbenchmarks: {err}")
            return False
        micro.append(res)

    _rounds(started, seconds, one_round)
    for name in micro[0] if micro else ():
        metrics[name] = _median([m[name] for m in micro])
    return metrics, len(micro)


def run_one(name, seed, seconds, trace, size="full") -> dict:
    wl = WORKLOADS[name]
    tally = Tally()
    if trace:
        values, rounds = run_traced(wl, size, seed, seconds, tally)
        units = PER_LAYER
    else:
        values, rounds = run_untraced(wl, size, seed, seconds, tally)
        units = END_TO_END
    _oracle_sample(wl, size, seed, tally)
    missing = [k for k in units if values.get(k) is None]
    if missing:
        tally.fail(0, f"no value for {missing}")
    metrics = {
        k: {"value": values[k], "unit": u} for k, u in units.items() if values.get(k) is not None
    }
    for k, m in metrics.items():
        print(f"{name:22s} {k:28s} {m['value']:14.6g} {m['unit']}")
    print(
        f"{name:22s} rounds={rounds} attempted={tally.attempted} failed={tally.failed}"
    )
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seed", default="1", help="one seed, or several separated by commas")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's result, tagged, to this JSON-lines file")
    p.add_argument("--quick", action="store_true",
                   help="every workload at a tiny size, untraced and traced, all checks on")
    args = p.parse_args(argv)

    if not (SRC / "cdlab" / "__init__.py").is_file():
        print(f"cdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    sys.path.insert(0, str(SRC))
    # setup_s times the import of cached bytecode, as an installed package
    # has it, even where the environment turns off writing bytecode
    compileall.compile_dir(SRC / "cdlab", quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = [int(s) for s in args.seed.split(",")]
    if args.quick:
        plan = [(n, 1, 0.0, t, "quick") for n in names for t in (0, 1)]
    else:
        plan = [(n, s, args.seconds, args.trace, "full") for s in seeds for n in names]
    results = []
    for name, seed, seconds, trace, size in plan:
        result = run_one(name, seed, seconds, trace, size)
        results.append(result)
        if args.out:
            with open(args.out, "a") as fh:
                tagged = dict(result, workload=name, seed=seed, trace=trace, size=size)
                fh.write(json.dumps(tagged) + "\n")
        if len(plan) > 1:
            print(json.dumps(result))
    if len(plan) > 1:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    print(json.dumps(results[0]))
    return 0 if results[0]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
