"""Layer microbenchmarks: microseconds per public call on seeded inputs.

Run in a fresh interpreter (see child.py), so that the first gamma_set call
on each set is a cache miss.  Every figure except the cold gamma_set is
taken warm: one untimed pass fills the library's caches, then the median of
several timed passes over the same inputs is reported per call.
"""

import random
import statistics
import time

from cdlab import (
    FinSet,
    Product,
    check_cor_hs,
    check_cor_udt,
    check_theorem_main,
    conjecture_holds,
    gamma_set,
    make_ambient,
    sumset,
    sumset_size,
    union,
)
from cdlab.search import family_ambients

PAIRS = 200
PASSES = 5


def _us_per_call(fn, args):
    for a in args:
        fn(*a)
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter_ns()
        for a in args:
            fn(*a)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / len(args) / 1e3


def _nonempty_masks(rng, ambient, k):
    return [rng.randrange(1, 1 << ambient.carrier_size) for _ in range(k)]


def _pairs(rng, ambients, k):
    out = []
    for _ in range(k):
        a = rng.choice(ambients)
        x, y = _nonempty_masks(rng, a, 2)
        out.append((FinSet.from_mask(a, x), FinSet.from_mask(a, y)))
    return out


def run(seed: int, family: dict) -> dict:
    rng = random.Random(f"micro:{seed}")
    abelian = family_ambients({"kind": "abelian_up_to_order", "max_order": 10})
    products = [a for a in abelian if isinstance(a, Product)]
    z10 = make_ambient({"kind": "zmod", "n": 10})
    z13 = make_ambient({"kind": "zmod", "n": 13})
    out = {}

    # cold first: distinct sets of at least two elements, each seen once
    cold, seen = [], set()
    while len(cold) < PAIRS:
        a = rng.choice(abelian)
        mask = rng.randrange(1, 1 << a.carrier_size)
        if mask.bit_count() >= 2 and (a, mask) not in seen:
            seen.add((a, mask))
            cold.append((FinSet.from_mask(a, mask),))
    t0 = time.perf_counter_ns()
    for (s,) in cold:
        gamma_set(s)
    out["gamma.gamma_set_cold_us"] = (time.perf_counter_ns() - t0) / len(cold) / 1e3

    z10_pairs = _pairs(rng, [z10], PAIRS)
    z13_pairs = _pairs(rng, [z13], PAIRS)
    prod_pairs = _pairs(rng, products, PAIRS)
    triples = []
    for _ in range(PAIRS):
        a = rng.choice(abelian)
        triples.append(([FinSet.from_mask(a, m) for m in _nonempty_masks(rng, a, 3)],))
    elem_pairs = []
    for _ in range(PAIRS):
        a = rng.choice(products)
        carrier = a.carrier()
        elem_pairs.append((a, rng.choice(carrier), rng.choice(carrier)))

    out["search.family_build_us"] = _us_per_call(family_ambients, [(family,)] * 20)
    out["theorems.theorem_us"] = _us_per_call(check_theorem_main, z10_pairs)
    out["theorems.udt_us"] = _us_per_call(check_cor_udt, z13_pairs)
    out["theorems.conjecture3_us"] = _us_per_call(conjecture_holds, triples)
    out["theorems.hs_us"] = _us_per_call(check_cor_hs, z10_pairs)
    out["setops.sumset_zmod_us"] = _us_per_call(sumset, z10_pairs)
    out["setops.from_mask_us"] = _us_per_call(FinSet.from_mask, [(z10, x.mask) for x, _ in z10_pairs])
    out["setops.sumset_size_zmod_us"] = _us_per_call(sumset_size, z13_pairs)
    out["setops.sumset_product_us"] = _us_per_call(sumset, prod_pairs)
    out["setops.union_us"] = _us_per_call(union, z10_pairs)
    out["gamma.gamma_set_warm_us"] = _us_per_call(gamma_set, [(y,) for _, y in z13_pairs])
    out["ambient.product_add_us"] = _us_per_call(Product.add, elem_pairs)
    return out
