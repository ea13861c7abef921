"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py '<job JSON>'

The job is {"task": "search", "spec": {...}, "trace": false} or
{"task": "micro", "seed": n, "family": {...}}.  The sample prints one JSON
line on stdout.  A fresh interpreter per sample matters because the
library's memos (_GAMMA_CACHE, _CLOSURE_CACHE, _CTX_CACHE) live at module
level: a second search in one process finds them warm, while a user who
runs `cdlab search` always pays the cold cost.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cdlab():
    sys.path.insert(0, str(SRC))
    import cdlab

    if Path(cdlab.__file__).resolve().parent != SRC / "cdlab":
        raise SystemExit(f"imported cdlab from {cdlab.__file__}, not from {SRC}")
    return cdlab


def _peak_rss_mb() -> float:
    """Peak resident memory of this program.  VmHWM starts afresh at exec;
    ru_maxrss would also count the parent's pages from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _stable_digest(report) -> str:
    """Digest of stable_json() with the worker count taken out, so that the
    workers=1 and workers=2 reports of one spec can be compared."""
    doc = report.stable_json()
    doc["spec"].pop("workers")
    doc.pop("workers")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def search(job) -> dict:
    spec_doc = job["spec"]
    t0 = time.perf_counter()
    cdlab = _import_cdlab()
    from cdlab.search import family_ambients

    family_ambients(spec_doc["family"])
    setup_s = time.perf_counter() - t0

    spec = cdlab.SearchSpec.from_json(spec_doc)
    from probe import Probe

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cdlab.search.resolve_checker(spec.checker))
    probe = Probe()
    t1 = time.perf_counter_ns()
    report = cdlab.run_search(spec)
    wall_ns = time.perf_counter_ns() - t1
    speed, probes = probe.stop()
    if tracer is not None:
        tracer.uninstall()
    instances = report.instances_checked + report.instances_skipped
    raw_rate = instances / (wall_ns / 1e9)
    out = {
        "raw_setup_s": setup_s,
        "raw_inst_per_s": raw_rate,
        "setup_s": setup_s * speed,
        "inst_per_s": raw_rate / speed,
        "wall_s": wall_ns / 1e9 * speed,
        "speed": speed,
        "probes": probes,
        "peak_rss_mb": _peak_rss_mb(),
        "checked": report.instances_checked,
        "skipped": report.instances_skipped,
        "violations": report.violations,
        "digest": _stable_digest(report),
    }
    if tracer is not None:
        out["layers"] = tracer.summary(wall_ns * speed, instances, speed)
    return out


def micro(job) -> dict:
    _import_cdlab()
    import micro
    from probe import Probe

    probe = Probe()
    out = micro.run(job["seed"], job["family"])
    speed, _ = probe.stop()
    return {k: v * speed for k, v in out.items()}


def main():
    job = json.loads(sys.argv[1])
    out = {"search": search, "micro": micro}[job["task"]](job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
