"""The benchmark's workloads: search specs at three sizes, their
closed-form instance counts, and seeded instance samples for the oracle.

Each workload is drawn from one acceptance criterion of the test suite and
sized down so that one sample takes seconds.  The sizes are fixed here so
that figures stay comparable from one commit to the next:

    full   the timed samples behind the end-to-end metrics
    trace  the traced sample behind the per-layer metrics, small enough to
           keep every span in memory
    quick  a tiny run of every check, the benchmark's own test
"""

import math
import random
from dataclasses import dataclass

ORACLE_SAMPLE = 300

# Abelian groups of order at most 10, one per isomorphism class, as the
# cyclic factors of their invariant-factor form.  Written out by hand so
# the oracle does not depend on the library's own enumeration.
ABELIAN_UP_TO_10 = (
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,),
    (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,),
)


@dataclass(frozen=True)
class Workload:
    name: str
    checker: str
    n_summands: int
    nonempty: bool
    families: dict   # size -> family description
    trials: dict     # size -> random trial count; empty for exhaustive runs

    @property
    def is_random(self) -> bool:
        return bool(self.trials)

    def spec(self, size: str, seed: int, workers: int) -> dict:
        doc = {
            "family": self.families[size],
            "checker": self.checker,
            "n_summands": self.n_summands,
            "subset_filter": {"nonempty": True} if self.nonempty else {},
            "workers": workers,
        }
        if self.is_random:
            doc["mode"] = {"kind": "random", "seed": seed, "trials": self.trials[size]}
        else:
            doc["mode"] = {"kind": "exhaustive"}
        return doc

    def groups(self, size: str):
        """Cyclic factors of every ambient in the family, in family order."""
        fam = self.families[size]
        if fam["kind"] == "zmod_range":
            return [(n,) for n in range(fam["lo"], fam["hi"] + 1)]
        if fam["kind"] == "explicit":
            return [(d["n"],) for d in fam["ambients"]]
        if fam["kind"] == "abelian_up_to_order" and fam["max_order"] == 10:
            return list(ABELIAN_UP_TO_10)
        raise ValueError(f"no closed form for family {fam!r}")

    def expected_counts(self, size: str):
        """(instances_checked, instances_skipped) in closed form.  No
        workload's checker rejects an instance its filter lets through."""
        if self.is_random:
            return self.trials[size], 0
        k = self.n_summands
        attempted = checked = 0
        for factors in self.groups(size):
            subsets = 1 << math.prod(factors)
            attempted += subsets ** k
            checked += (subsets - 1 if self.nonempty else subsets) ** k
        return checked, attempted - checked

    def sample_instances(self, seed: int, size: str):
        """A seeded sample of instances from this workload's instance space,
        as (factors, sets), sets being sorted tuples of element tuples.
        Exhaustive workloads weight each ambient by its instance count."""
        rng = random.Random(f"oracle:{self.name}:{seed}")
        groups = self.groups(size)
        lo = 1 if self.nonempty else 0
        weights = None
        if not self.is_random:
            weights = [((1 << math.prod(f)) - lo) ** self.n_summands for f in groups]
        out = []
        for _ in range(ORACLE_SAMPLE):
            factors = rng.choices(groups, weights)[0]
            elems = _elements(factors)
            sets = []
            for _ in range(self.n_summands):
                mask = rng.randrange(lo, 1 << len(elems))
                sets.append(tuple(e for i, e in enumerate(elems) if mask >> i & 1))
            out.append((factors, sets))
        return out


def _elements(factors):
    elems = [()]
    for f in factors:
        elems = [e + (r,) for e in elems for r in range(f)]
    return elems


def describe(factors) -> dict:
    """Ambient description of the group with these cyclic factors."""
    if len(factors) == 1:
        return {"kind": "zmod", "n": factors[0]}
    return {"kind": "product", "factors": [{"kind": "zmod", "n": f} for f in factors]}


def encode(factors, elem):
    return elem[0] if len(factors) == 1 else list(elem)


def factors_of(desc: dict):
    if desc["kind"] == "zmod":
        return (desc["n"],)
    return tuple(f["n"] for f in desc["factors"])


def decode(factors, value):
    return (value,) if len(factors) == 1 else tuple(value)


def _zmods(moduli):
    return {"kind": "explicit", "ambients": [{"kind": "zmod", "n": n} for n in moduli]}


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 1: the dichotomy over Z2..Z10; mask decoding dominates
        Workload(
            "theorem_exhaustive", "theorem", 2, True,
            {
                "full": {"kind": "zmod_range", "lo": 2, "hi": 8},
                "trace": {"kind": "zmod_range", "lo": 2, "hi": 7},
                "quick": {"kind": "zmod_range", "lo": 2, "hi": 5},
            },
            {},
        ),
        # criterion 2: the unconditional bound over prime moduli; the search
        # loop's own cost is large and no set is decoded by the checker
        Workload(
            "udt_prime_exhaustive", "udt", 2, True,
            {
                "full": _zmods((2, 3, 5, 7, 11)),
                "trace": _zmods((2, 3, 5, 7)),
                "quick": _zmods((2, 3, 5)),
            },
            {},
        ),
        # criterion 8: three summands sampled over abelian groups of order
        # up to 10; product ambients, gamma_set and ord_elem dominate
        Workload(
            "conjecture_random", "conjecture", 3, True,
            {size: {"kind": "abelian_up_to_order", "max_order": 10}
             for size in ("full", "trace", "quick")},
            {"full": 6 * 4096, "trace": 2 * 4096, "quick": 2 * 4096},
        ),
        # criterion 10: the union bound; the only workload that reaches the
        # closure memo and the sorted, non-mask union
        Workload(
            "hs_exhaustive", "hs", 2, False,
            {
                "full": {"kind": "zmod_range", "lo": 1, "hi": 8},
                "trace": {"kind": "zmod_range", "lo": 1, "hi": 7},
                "quick": {"kind": "zmod_range", "lo": 1, "hi": 5},
            },
            {},
        ),
    )
}
