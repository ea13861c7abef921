"""In-memory spans around the library's layer boundaries.

The tracer replaces public functions where the calling module binds them
(for example ``cdlab.theorems.sumset`` or ``cdlab.gamma.ord_elem``) with a
wrapper that records one span per call: its name, the span that was open
when it started, and its start and end times.  Spans are kept in flat
integer arrays so that a traced search of a few hundred thousand instances
fits in memory; self times and counts are derived from them afterwards.

A span's self time is its duration minus the durations of its direct
children.  The wrapper's own bookkeeping for a child lands in the parent's
self time, which is why traced figures read higher than untraced ones; the
overhead ratio reported next to them says by how much.
"""

import dataclasses
import time
from array import array

# The bindings wrapped in each calling module, by the layer they belong to.
# Every call the checkers make into setops and gamma goes through one.
_THEOREMS_SETOPS = (
    "sumset", "sumset_size", "union", "intersection", "is_subset",
    "generated", "generated_sym", "units_of", "is_commutative_generated",
)
_THEOREMS_GAMMA = ("gamma_set", "gamma_tuple", "normalize_pair")
_GAMMA_SETOPS = ("sumset", "sumset_size", "units_of")
_GAMMA_OWN = ("gamma_set", "ord_elem")

LAYERS = ("theorems", "setops", "gamma")


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.layer_of = []       # layer per name id
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self._undo = []

    def _id(self, name, layer):
        key = (name, layer)
        for i, pair in enumerate(zip(self.names, self.layer_of)):
            if pair == key:
                return i
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name, layer):
        nid = self._id(name, layer)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, checker_name):
        """Wrap the checker runner and the setops/gamma bindings that the
        search, the checkers and the gamma module call."""
        from cdlab import gamma, search, setops, theorems

        chk = search.CHECKERS[checker_name]
        runners = dict(search.CHECKERS)
        runners[checker_name] = dataclasses.replace(
            chk, run=self.wrap(chk.run, "runner", "theorems")
        )
        self._patch(search, "CHECKERS", runners)
        for attr in _THEOREMS_SETOPS:
            self._patch(theorems, attr, self.wrap(getattr(theorems, attr), attr, "setops"))
        for attr in _THEOREMS_GAMMA:
            self._patch(theorems, attr, self.wrap(getattr(theorems, attr), attr, "gamma"))
        for attr in _GAMMA_SETOPS:
            self._patch(gamma, attr, self.wrap(getattr(gamma, attr), attr, "setops"))
        for attr in _GAMMA_OWN:
            self._patch(gamma, attr, self.wrap(getattr(gamma, attr), attr, "gamma"))
        self._patch(
            search, "is_commutative_generated",
            self.wrap(search.is_commutative_generated, "is_commutative_generated", "setops"),
        )
        from_mask = setops.FinSet.from_mask
        self._patch(
            setops.FinSet, "from_mask",
            staticmethod(self.wrap(from_mask, "from_mask", "setops")),
        )

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, wall_ns: float, instances: int, scale: float = 1.0) -> dict:
        """Per-layer metrics of one traced search that took wall_ns, every
        span duration multiplied by `scale`."""
        n = len(self.name_id)
        dur = [(self.end[i] - self.start[i]) * scale for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = [0] * len(self.names)
        runner_ns = 0
        runner = self.names.index("runner")
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_ns[self.layer_of[nid]] += dur[i] - child[i]
            if nid == runner:
                runner_ns += dur[i]

        def count(name):
            return sum(c for c, nm in zip(calls, self.names) if nm == name)

        per_inst = 1e-3 / instances
        return {
            "search.self_us_per_inst": (wall_ns - runner_ns) * per_inst,
            "search.checker_calls": count("runner"),
            "theorems.self_us_per_inst": self_ns["theorems"] * per_inst,
            "setops.us_per_inst": self_ns["setops"] * per_inst,
            "setops.decodes_per_inst": count("from_mask") / instances,
            "setops.generated_sym_calls": count("generated_sym"),
            "gamma.us_per_inst": self_ns["gamma"] * per_inst,
            "gamma.gamma_set_calls": count("gamma_set"),
            "gamma.ord_elem_calls": count("ord_elem"),
        }
