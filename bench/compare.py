"""Spread of one set of benchmark runs, or drift between two sets.

    python3 bench/compare.py A.jsonl            # spread of each metric in A
    python3 bench/compare.py A.jsonl B.jsonl    # and B's drift from A

The files are those that `bench/run.py --out` appends to, one run per line.
For each workload and metric it prints the median over runs and the spread,
the distance between the first and third quartile as a share of the median.
Given two sets, it also prints how much worse B's median is than A's, as a
share of A's, and checks it against the bound in BENCHMARK.json.  It exits
1 when an end-to-end spread other than setup_s exceeds its bound, when a
median got worse by more than its bound, or when the share of failed
operations differs between the two sets.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): {metric: [values]}} and failed shares per key."""
    values = defaultdict(lambda: defaultdict(list))
    shares = defaultdict(set)
    for line in Path(path).read_text().splitlines():
        run = json.loads(line)
        key = (run["workload"], run["trace"])
        shares[key].add(run["failed"] / run["attempted"])
        for name, m in run["metrics"].items():
            values[key][name].append(m["value"])
    return values, shares


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in argv]
    ok = True
    print(f"{'workload':22s} {'metric':28s} {'n':>3s} {'median':>12s} {'spread':>7s}"
          + (f" {'median B':>12s} {'spread B':>8s} {'worse':>7s} {'bound':>6s}" if len(sets) == 2 else ""))
    for key in sorted(sets[0][0]):
        workload, trace = key
        for name, vals in sets[0][0][key].items():
            m = declared.get(name, {})
            bound = m.get("bound")
            med, spr = statistics.median(vals), spread(vals)
            row = f"{workload:22s} {name:28s} {len(vals):3d} {med:12.6g} {spr:7.3f}"
            flag = ""
            if bound is not None and name != "setup_s" and spr > bound:
                flag += " SPREAD>BOUND"
            if len(sets) == 2:
                other = sets[1][0].get(key, {}).get(name, [])
                if other:
                    med2, spr2 = statistics.median(other), spread(other)
                    worse = (med2 - med) / med if m.get("better") == "lower" else (med - med2) / med
                    row += f" {med2:12.6g} {spr2:8.3f} {worse:7.3f} {bound if bound is not None else '':>6}"
                    if bound is not None and name != "setup_s" and spr2 > bound:
                        flag += " SPREAD>BOUND"
                    if bound is not None and worse > bound:
                        flag += " WORSE>BOUND"
            ok = ok and not flag
            print(row + flag)
        if len(sets) == 2 and sets[0][1][key] != sets[1][1].get(key):
            print(f"{workload:22s} failed share differs: {sets[0][1][key]} vs {sets[1][1].get(key)}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
