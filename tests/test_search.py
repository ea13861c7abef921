import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cdlab import (
    FinSet,
    SearchSpec,
    enumerate_abelian_groups,
    make_ambient,
    replay,
    run_search,
)
from cdlab.errors import CeilingExceeded, MalformedInstance, PreconditionViolated, SpecInvalid
from cdlab import fixtures
from cdlab import sampling
from cdlab import search as search_mod
from cdlab.ambient import ZMod
from cdlab.search import family_ambients, resolve_checker
from cdlab.setops import is_commutative_generated


def _stable(report):
    doc = report.stable_json()
    doc = json.loads(json.dumps(doc))  # normalize tuples/lists
    doc["spec"].pop("workers")
    doc.pop("workers")
    return doc


def test_enumerate_abelian_groups_fixtures():
    assert [a.describe() for a in enumerate_abelian_groups(1)] == [
        {"kind": "zmod", "n": 1}
    ]
    four = [a.describe() for a in enumerate_abelian_groups(4)]
    assert four == [
        {"kind": "zmod", "n": 1},
        {"kind": "zmod", "n": 2},
        {"kind": "zmod", "n": 3},
        {"kind": "zmod", "n": 4},
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}]},
    ]
    eights = [
        a.describe()
        for a in enumerate_abelian_groups(8)
        if a.carrier_size == 8
    ]
    assert eights == [
        {"kind": "zmod", "n": 8},
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]},
        {
            "kind": "product",
            "factors": [
                {"kind": "zmod", "n": 2},
                {"kind": "zmod", "n": 2},
                {"kind": "zmod", "n": 2},
            ],
        },
    ]
    assert len(enumerate_abelian_groups(10)) == 14
    # no duplicated isomorphism classes
    descs = [json.dumps(a.describe(), sort_keys=True) for a in enumerate_abelian_groups(12)]
    assert len(descs) == len(set(descs))


# OEIS A000688: the number of abelian groups of order m, for m = 1..64
_ABELIAN_CLASSES = [
    1, 1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5, 1, 2, 1, 2, 1, 1, 1, 3, 2, 1, 3, 2,
    1, 1, 1, 7, 1, 1, 1, 4, 1, 1, 1, 3, 1, 1, 1, 2, 2, 1, 1, 5, 2, 2, 1, 2, 1, 3, 1, 3,
    1, 1, 1, 2, 1, 1, 2, 11,
]


def test_enumerate_abelian_groups_counts_classes_per_order():
    groups = enumerate_abelian_groups(64)
    counts = [0] * 64
    for a in groups:
        counts[a.carrier_size - 1] += 1
        desc = a.describe()
        factors = [f["n"] for f in desc["factors"]] if desc["kind"] == "product" else [desc["n"]]
        assert all(g % f == 0 for f, g in zip(factors, factors[1:])), desc
        assert len(factors) == 1 or factors[0] > 1, desc
    assert counts == _ABELIAN_CLASSES


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        run_search(SearchSpec(family={"kind": "zmod_range", "lo": 2, "hi": 4}, checker="nope"))
    with pytest.raises(SpecInvalid):
        run_search(
            SearchSpec(
                family={"kind": "zmod_range", "lo": 2, "hi": 4},
                checker="theorem",
                n_summands=3,
            )
        )
    with pytest.raises(SpecInvalid):
        run_search(
            SearchSpec(
                family={"kind": "zmod_range", "lo": 2, "hi": 4},
                checker="theorem",
                mode={"kind": "random", "trials": 10},  # no seed
            )
        )
    with pytest.raises(SpecInvalid):
        run_search(
            SearchSpec(
                family={"kind": "explicit", "ambients": [{"kind": "nat_lattice", "dim": 1}]},
                checker="theorem",
            )
        )
    with pytest.raises(SpecInvalid):
        SearchSpec.from_json({"family": {"kind": "zmod_range", "lo": 2, "hi": 3}})
    # orders are exact, so a spec has no closure budget to name
    with pytest.raises(SpecInvalid, match="unknown spec fields"):
        SearchSpec.from_json(
            {"family": {"kind": "zmod_range", "lo": 2, "hi": 3}, "checker": "udt", "budget": 5}
        )
    with pytest.raises(CeilingExceeded):
        run_search(
            SearchSpec(
                family={"kind": "zmod_range", "lo": 12, "hi": 12},
                checker="theorem",
                ceiling=1000,
            )
        )
    # an instance count past the int-to-text limit still gets a short message
    with pytest.raises(CeilingExceeded, match="ceiling"):
        run_search(SearchSpec(family={"kind": "zmod_range", "lo": 8000, "hi": 8000}, checker="udt"))
    assert resolve_checker("theorem_main") == "theorem"


def test_ceiling_is_checked_before_any_mask_range_exists():
    # 2^(10^12) masks per slot: the count alone would need about 125 GB
    huge = 10**12
    for family in (
        {"kind": "explicit", "ambients": [{"kind": "zmod", "n": huge}]},
        {"kind": "zmod_range", "lo": huge, "hi": huge},
    ):
        with pytest.raises(CeilingExceeded, match=r"^at least 2\*\*1999999999999 instances"):
            run_search(SearchSpec(family=family, checker="udt"))
    # Z4 with a reduced last slot has 16 * 9 = 144 instances, above 2^7:
    # at the count itself the search runs, and one below it is refused
    z4 = dict(family={"kind": "zmod_range", "lo": 4, "hi": 4}, checker="udt",
              symmetry_reduction=True)
    assert run_search(SearchSpec(**z4, ceiling=144)).instances_checked > 0
    for ceiling in (143, 127):
        with pytest.raises(CeilingExceeded, match=r"^at least 2\*\*7 instances"):
            run_search(SearchSpec(**z4, ceiling=ceiling))


def test_a_family_total_fails_the_ceiling_before_any_slot_exists(monkeypatch):
    # each reduced Z10 has 2^9 + 1 = 513 instances, under the ceiling, but
    # the three of them hold 1539, over it
    built = []
    real = search_mod._slots

    def slots(ambient, n_summands, reduced):
        built.append(ambient.carrier_size)
        return real(ambient, n_summands, reduced)

    monkeypatch.setattr(search_mod, "_slots", slots)
    z10s = dict(family={"kind": "explicit", "ambients": [{"kind": "zmod", "n": 10}] * 3},
                checker="conjecture", n_summands=1, symmetry_reduction=True)
    with pytest.raises(CeilingExceeded, match=r"^at least 2\*\*10 instances"):
        run_search(SearchSpec(**z10s, ceiling=1538))
    assert built == []
    assert run_search(SearchSpec(**z10s, ceiling=1539)).instances_checked > 0
    assert built == [10, 10, 10]


def test_instance_counts_match_the_slots():
    for a in (ZMod(1), ZMod(2), ZMod(5), make_ambient({"kind": "product", "factors": [
            {"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]})):
        for k in (1, 2, 3):
            for reduced in (False, True):
                slots = search_mod._slots(a, k, reduced)
                assert search_mod._instances(a.carrier_size, k, reduced) == math.prod(
                    map(len, slots)
                ), (a.describe(), k, reduced)


def _counted_zmods(monkeypatch, limit=None):
    """The moduli of the ZMod ambients the search's families build from
    now on; building more than `limit` of them raises."""
    built = []

    def zmod(n):
        if limit is not None and len(built) >= limit:
            raise RuntimeError(f"built more than {limit} ZMod ambients")
        built.append(n)
        return ZMod(n)

    monkeypatch.setattr(search_mod, "ZMod", zmod)
    return built


def test_a_search_builds_its_family_once(monkeypatch):
    built = _counted_zmods(monkeypatch)
    for mode in ({"kind": "exhaustive"}, {"kind": "random", "seed": 1, "trials": 10}):
        built.clear()
        run_search(SearchSpec(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="udt",
                              mode=mode))
        assert built == [1, 2, 3, 4, 5, 6], mode


def test_a_huge_family_fails_the_ceiling_before_any_ambient_exists(monkeypatch):
    # the bound of a ranged family, not its list of ambients, meets the
    # ceiling, so the cost of failing does not grow with hi
    built = _counted_zmods(monkeypatch)
    for family in (
        {"kind": "zmod_range", "lo": 1, "hi": 10**5},
        {"kind": "abelian_up_to_order", "max_order": 10**5},
    ):
        with pytest.raises(CeilingExceeded, match=r"^at least 2\*\*199999 instances"):
            run_search(SearchSpec(family=family, checker="udt"))
    assert built == []


def test_a_random_carrier_above_the_draw_bound_fails_before_any_ambient_exists(monkeypatch):
    # the limit stops a family of 2^31 ambients from being built should
    # the draw bound be checked after the family
    built = _counted_zmods(monkeypatch, limit=100)
    spec = SearchSpec(family={"kind": "zmod_range", "lo": 1, "hi": 1 << 31}, checker="udt",
                      mode={"kind": "random", "seed": 1, "trials": 1})
    with pytest.raises(SpecInvalid, match="random mode draws sets over at most"):
        run_search(spec)
    assert built == []


def test_family_ambients():
    fam = family_ambients({"kind": "zmod_range", "lo": 2, "hi": 4})
    assert [a.carrier_size for a in fam] == [2, 3, 4]
    fam = family_ambients({"kind": "explicit", "ambients": [fixtures.s3().describe()]})
    assert fam[0] == fixtures.s3()


def test_exhaustive_theorem_small_is_clean():
    rep = run_search(
        SearchSpec(
            family={"kind": "zmod_range", "lo": 2, "hi": 8},
            checker="theorem_main",
            subset_filter={"nonempty": True},
        )
    )
    assert rep.violations == []
    want = sum((2**n - 1) ** 2 for n in range(2, 9))
    assert rep.instances_checked == want


def test_exhaustive_s3_with_commutative_filter():
    rep = run_search(
        SearchSpec(
            family={"kind": "explicit", "ambients": [fixtures.s3().describe()]},
            checker="theorem",
            subset_filter={"nonempty": True, "commutative_generated": True},
        )
    )
    assert rep.violations == []
    assert rep.instances_checked > 0
    # every skipped instance is an empty set or a noncommutative Y
    assert rep.instances_checked + rep.instances_skipped == 4096


def test_determinism_across_runs_and_workers():
    base = dict(
        family={"kind": "zmod_range", "lo": 2, "hi": 6},
        checker="udt",
        subset_filter={"nonempty": True},
    )
    reports = [
        run_search(SearchSpec(**base, workers=w)) for w in (1, 2, 8)
    ]
    stable = [_stable(r) for r in reports]
    assert stable[0] == stable[1] == stable[2]
    again = _stable(run_search(SearchSpec(**base, workers=2)))
    assert again == stable[0]


def test_pool_starts_no_more_workers_than_items(monkeypatch):
    # the parent runs the first run of items itself and forks one child per
    # further run, so a two-item spec forks once at any worker count above
    # one and never at one; the report still records spec.workers
    forks = []
    real_fork = search_mod.os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(search_mod.os, "fork", fork)
    for doc in (
        # two exhaustive items, and two random ones
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 8}, checker="theorem",
             subset_filter=_NONEMPTY),
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="udt",
             mode={"kind": "random", "seed": 3, "trials": 5000}),
    ):
        reports, counts = {}, []
        for w in (1, 2, 8):
            forks.clear()
            reports[w] = run_search(SearchSpec(**doc, workers=w))
            counts.append(len(forks))
        assert counts == [0, 1, 1], doc
        assert len(reports[1].per_item) == 2
        assert [reports[w].stable_json()["workers"] for w in (1, 2, 8)] == [1, 2, 8]
        assert _stable(reports[8]) == _stable(reports[2]) == _stable(reports[1])


def test_random_mode_deterministic_and_filtered():
    base = dict(
        family={"kind": "abelian_up_to_order", "max_order": 8},
        checker="conjecture",
        n_summands=3,
        subset_filter={"nonempty": True, "max_size": 4, "contains_identity": True},
        mode={"kind": "random", "seed": 11, "trials": 1500},
    )
    r1 = run_search(SearchSpec(**base, workers=1))
    r2 = run_search(SearchSpec(**base, workers=2))
    assert _stable(r1) == _stable(r2)
    assert r1.instances_checked == 1500
    assert r1.seed == 11
    # the n-ary bound has genuine violating triples, so a seeded run may
    # legitimately report some; each must replay exactly
    for v in r1.violations:
        ok, verdict = replay(v)
        assert ok is False and verdict == v["verdict"]


def _random_spec(family, n_summands, subset_filter, trials=10, seed=5):
    return SearchSpec(family=family, checker="conjecture", n_summands=n_summands,
                      subset_filter=subset_filter,
                      mode={"kind": "random", "seed": seed, "trials": trials})


def _trial(ctx, index):
    ai, sets = sampling.sample_instance(ctx, index)
    return ai, [S.raw for S in sets]


@pytest.mark.parametrize("family, subset_filter", [
    ({"kind": "abelian_up_to_order", "max_order": 8},
     {"nonempty": True, "max_size": 4, "contains_identity": True}),
    # sets of about 500 and 700 elements read more than one digest of
    # their trial's stream
    ({"kind": "zmod_range", "lo": 1000, "hi": 1400}, {}),
])
def test_a_trial_depends_on_its_seed_and_index_alone(family, subset_filter):
    indices = list(range(300))
    first = search_mod._Context(_random_spec(family, 3, subset_filter, trials=300))
    want = [_trial(first, i) for i in indices]
    random.Random(4).shuffle(indices)
    again = search_mod._Context(_random_spec(family, 3, subset_filter, trials=100000))
    assert {i: _trial(again, i) for i in indices} == dict(enumerate(want))
    other = search_mod._Context(_random_spec(family, 3, subset_filter, trials=300, seed=6))
    assert [_trial(other, i) for i in range(300)] != want


def test_a_random_report_does_not_depend_on_the_items(monkeypatch):
    # a stream kept per item or per worker would draw other instances
    # once the items are cut differently
    spec = dict(family={"kind": "zmod_range", "lo": 8, "hi": 8}, checker="conjecture",
                n_summands=3, subset_filter={"nonempty": True, "max_size": 3},
                mode={"kind": "random", "seed": 5, "trials": 3000})
    default = run_search(SearchSpec(**spec))
    monkeypatch.setattr(search_mod, "_CHUNK_RANDOM", 37)
    cut = run_search(SearchSpec(**spec))
    assert len(cut.per_item) == -(-3000 // 37) > len(default.per_item)
    assert default.violations
    for key in ("instances_checked", "instances_skipped", "violations"):
        assert getattr(cut, key) == getattr(default, key), key


@pytest.mark.parametrize("family, subset_filter", [
    ({"kind": "zmod_range", "lo": 4, "hi": 4}, {"nonempty": True, "max_size": 2}),
    ({"kind": "zmod_range", "lo": 5, "hi": 5}, {"contains_identity": True, "max_size": 3}),
    ({"kind": "zmod_range", "lo": 3, "hi": 3}, {"nonempty": True, "contains_identity": True}),
    ({"kind": "explicit", "ambients": [fixtures.s3().describe()]},
     {"commutative_generated": True, "max_size": 2}),
    ({"kind": "zmod_range", "lo": 2, "hi": 4}, {"nonempty": True}),
])
def test_random_draws_are_uniform_over_the_admitted_masks(family, subset_filter):
    # _admits, the filter of the exhaustive walk, is the oracle: a trial
    # picks each ambient at 1/|ambients|, and then each slot hits every
    # mask it admits there, and only those, at 1/|admitted| each
    trials = 30000
    ctx = search_mod._Context(_random_spec(family, 2, subset_filter, trials))
    counts = {}
    for i in range(trials):
        ai, masks = _trial(ctx, i)
        for slot, m in enumerate(masks):
            counts[ai, slot, m] = counts.get((ai, slot, m), 0) + 1
    for ai, a in enumerate(ctx.ambients):
        for slot in (0, 1):
            admitted = [m for m in range(1 << a.carrier_size)
                        if search_mod._admits(ctx, ai, slot, m)]
            assert sorted(m for i, s, m in counts if (i, s) == (ai, slot)) == admitted
            expected = trials / len(ctx.ambients) / len(admitted)
            for m in admitted:
                assert abs(counts[ai, slot, m] / expected - 1) < 0.2, (ai, slot, m)


def test_random_draws_small_sets_over_a_large_carrier():
    # drawn by rejection, a set of at most 4 of 40 elements came up about
    # once in 10^7 draws, so this spec used to exhaust the 100,000 draws
    spec = dict(family={"kind": "zmod_range", "lo": 40, "hi": 40}, checker="theorem",
                subset_filter={"max_size": 4}, mode={"kind": "random", "seed": 1, "trials": 500})
    report = run_search(SearchSpec(**spec))
    assert report.instances_checked + report.instances_skipped == 500
    ctx = search_mod._Context(SearchSpec(**spec))
    sizes = {len(S) for i in range(500) for S in sampling.sample_instance(ctx, i)[1]}
    assert max(sizes) == 4


@pytest.mark.parametrize("subset_filter", [
    {"nonempty": True, "max_size": 0},
    {"contains_identity": True, "max_size": 0},
])
def test_a_random_filter_admitting_no_set_fails_at_once(subset_filter):
    with pytest.raises(SpecInvalid, match="subset filters admit no set"):
        run_search(_random_spec({"kind": "zmod_range", "lo": 3, "hi": 3}, 2, subset_filter))


# sha256 of "ai:mask,mask,...;" over the first 2,000 trials: a sampler
# that draws any other set, however uniform, fails here
_DRAW_PINS = [
    # criterion 8's random spec
    (dict(family={"kind": "abelian_up_to_order", "max_order": 10}, checker="conjecture",
          n_summands=3, subset_filter={"nonempty": True},
          mode={"kind": "random", "seed": 2014, "trials": 100_000}),
     "b3aec059a1807278639ea80ed0e7a5b7c1ae88113fbd46921938bdf9a090785d"),
    # sizes picked by weight, then Floyd's t-subsets
    (dict(family={"kind": "zmod_range", "lo": 40, "hi": 40}, checker="theorem",
          subset_filter={"max_size": 4}, mode={"kind": "random", "seed": 1, "trials": 2000}),
     "ed526afc1622b73a051f84d559ac9690e250979ea9519cb749a603fd24a7ebe7"),
    # the identity bit set, not drawn, on the last slot
    (dict(family={"kind": "zmod_range", "lo": 5, "hi": 5}, checker="conjecture", n_summands=3,
          subset_filter={"contains_identity": True, "max_size": 3},
          mode={"kind": "random", "seed": 5, "trials": 2000}),
     "33d69b427612357fc8005afbadaca76703bb57eb8de054b87a484e954f7cc5e3"),
]


@pytest.mark.parametrize("spec, digest", _DRAW_PINS, ids=["criterion8", "z40", "z5"])
def test_random_draws_are_pinned(spec, digest):
    # the report digests of most random specs carry counts only, so they
    # cannot tell which sets were drawn; this pins the draws themselves
    ctx = search_mod._Context(SearchSpec(**spec))
    h = hashlib.sha256()
    for i in range(2000):
        ai, masks = _trial(ctx, i)
        h.update(b"%d:%s;" % (ai, b",".join(b"%d" % m for m in masks)))
    assert h.hexdigest() == digest


def test_symmetry_reduction_soundness():
    # the reduced run finds a violation exactly when the full run does;
    # both are expected clean here, and the reduced space is smaller
    for checker in ("theorem", "udt"):
        for n in range(2, 7):
            base = dict(
                family={"kind": "zmod_range", "lo": n, "hi": n},
                checker=checker,
                subset_filter={"nonempty": True},
            )
            full = run_search(SearchSpec(**base))
            reduced = run_search(SearchSpec(**base, symmetry_reduction=True))
            assert bool(full.violations) == bool(reduced.violations)
            assert not full.violations
            total_red = reduced.instances_checked + reduced.instances_skipped
            total_full = full.instances_checked + full.instances_skipped
            assert total_red < total_full


def test_symmetry_reduction_requires_applicable_checker():
    with pytest.raises(SpecInvalid):
        run_search(
            SearchSpec(
                family={"kind": "zmod_range", "lo": 2, "hi": 3},
                checker="hs",
                symmetry_reduction=True,
            )
        )


def test_replay_round_trip():
    inst = {
        "ambient": {"kind": "zmod", "n": 4},
        "checker": "theorem",
        "sets": [[0, 2], [0, 2]],
        "budget": 10000,
    }
    ok1, verdict1 = replay(inst)
    ok2, verdict2 = replay(json.loads(json.dumps(inst)))
    assert ok1 is True and verdict1["branch_ii"] is True
    assert json.dumps(verdict1, sort_keys=True) == json.dumps(verdict2, sort_keys=True)


def test_replay_rejects_tampered_instances():
    for bad in (
        "not a dict",
        {},
        {"ambient": {"kind": "zmod", "n": 4}, "checker": "nope", "sets": [[0]]},
        {"ambient": {"kind": "zmod", "n": 4}, "checker": "theorem", "sets": [[0]]},
        {"ambient": {"kind": "zmod", "n": 4}, "checker": "theorem", "sets": [[0, 9], [0]]},
        {"ambient": {"kind": "zmod"}, "checker": "theorem", "sets": [[0], [0]]},
    ):
        with pytest.raises(MalformedInstance):
            replay(bad)


def test_violation_instances_replay(monkeypatch):
    # force a fake violation to exercise the encode/replay path end to end
    from cdlab import search as search_mod
    from cdlab.theorems import BoundReport

    real = search_mod.CHECKERS["udt"]

    def fake_run(sets):
        r = real.run(sets)
        if len(sets[0]) == 1 and len(sets[1]) == 1:
            return BoundReport(holds=False, lhs=r.lhs, rhs=r.rhs, detail=r.detail)
        return r

    monkeypatch.setitem(
        search_mod.CHECKERS,
        "udt",
        search_mod.Checker(2, fake_run),
    )
    rep = run_search(
        SearchSpec(
            family={"kind": "zmod_range", "lo": 3, "hi": 3},
            checker="udt",
            subset_filter={"nonempty": True},
        )
    )
    assert len(rep.violations) == 9  # singleton pairs over Z3
    for v in rep.violations:
        ok, verdict = replay(v)  # replays through the patched checker
        assert ok is False
        assert verdict == v["verdict"]


def test_search_report_json_shape():
    rep = run_search(
        SearchSpec(
            family={"kind": "zmod_range", "lo": 2, "hi": 3},
            checker="weaker",
            subset_filter={"nonempty": True},
        )
    )
    doc = rep.to_json()
    assert set(doc) == {
        "spec",
        "instances_checked",
        "instances_skipped",
        "violations",
        "per_item",
        "workers",
        "seed",
        "elapsed",
    }
    assert doc["per_item"][0]["item"] == 0
    round_trip = SearchSpec.from_json(doc["spec"])
    assert round_trip.to_json() == doc["spec"]


_NONEMPTY = {"nonempty": True}


def _product(*ns):
    return {"kind": "product", "factors": [{"kind": "zmod", "n": n} for n in ns]}


_Z2Z4 = _product(2, 4)
_Z2_3 = _product(2, 2, 2)
_Z3Z3 = _product(3, 3)
# every checker, symmetry reduction, each subset filter, one to three
# summands and product ambients; at chunk 37 an item holds one slab of Z6
# or Z7, a few slabs of a smaller ambient, or slabs of two ambients
_SLAB_SPECS = [
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="theorem_main",
         subset_filter=_NONEMPTY),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="prop13"),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 7}, checker="udt",
         subset_filter=_NONEMPTY, workers=2),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="hs"),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="zn",
         subset_filter=_NONEMPTY),
    dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="weaker",
         subset_filter=_NONEMPTY),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 9}, checker="conjecture",
         n_summands=1),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 3}, checker="conjecture",
         n_summands=3),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="theorem",
         subset_filter=_NONEMPTY, symmetry_reduction=True),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 7}, checker="udt",
         symmetry_reduction=True),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 4}, checker="conjecture",
         n_summands=3, subset_filter=_NONEMPTY, symmetry_reduction=True),
    dict(family={"kind": "zmod_range", "lo": 2, "hi": 7}, checker="udt",
         subset_filter={"nonempty": True, "max_size": 3}),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="theorem",
         subset_filter={"contains_identity": True}),
    dict(family={"kind": "explicit", "ambients": [fixtures.s3().describe()]},
         checker="theorem", subset_filter={"nonempty": True, "commutative_generated": True}),
    # the checkers with a slab entry, over more ambients and filters
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="hs"),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="hs",
         subset_filter={"nonempty": True, "max_size": 3}),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="hs",
         subset_filter={"contains_identity": True}),
    dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="udt",
         subset_filter={"max_size": 4}),
    dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="theorem",
         subset_filter={"nonempty": True, "max_size": 3}),
    dict(family={"kind": "explicit", "ambients": [fixtures.s3().describe()]},
         checker="theorem", subset_filter={"commutative_generated": True}),
    dict(family={"kind": "explicit", "ambients": [fixtures.s3().describe()]}, checker="hs"),
    # not cancellative: every slab falls back whole
    dict(family={"kind": "explicit", "ambients": [fixtures.left_zero_band(3).describe()]},
         checker="udt"),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="udt",
         subset_filter={"contains_identity": True}),
    dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="udt",
         symmetry_reduction=True),
    dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="theorem",
         subset_filter=_NONEMPTY, symmetry_reduction=True),
    # the one reduced slot 0: its heads are the empty mask and the masks
    # holding the identity
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="conjecture",
         n_summands=1, symmetry_reduction=True),
    # the structure test in the slab, over product ambients too
    dict(family={"kind": "abelian_up_to_order", "max_order": 8}, checker="theorem",
         subset_filter=_NONEMPTY),
    # conjecture: one column over the folded tail, gamma read per head
    dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="conjecture"),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 4}, checker="conjecture",
         n_summands=3, subset_filter=_NONEMPTY),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 4}, checker="conjecture",
         n_summands=3, subset_filter=_NONEMPTY, symmetry_reduction=True),
    dict(family={"kind": "explicit", "ambients": [fixtures.left_zero_band(3).describe()]},
         checker="conjecture"),
]


def _brute_force(spec):
    """(checked, skipped, violating instances) of an exhaustive spec, from
    every mask tuple that itertools.product yields, slot 0 fastest."""
    chk = search_mod.CHECKERS[resolve_checker(spec.checker)]
    flt = spec.subset_filter
    checked = skipped = 0
    violations = []
    for a in family_ambients(spec.family):
        ident = a.index_of(a.identity) if a.axioms.has_identity else None

        def passes(mask, last):
            if flt.get("nonempty") and mask == 0:
                return False
            if flt.get("max_size") is not None and bin(mask).count("1") > flt["max_size"]:
                return False
            if last and flt.get("contains_identity") and not (mask >> ident) & 1:
                return False
            return not (
                last
                and flt.get("commutative_generated")
                and not is_commutative_generated(FinSet.from_mask(a, mask))
            )

        slots = [range(1 << a.carrier_size)] * spec.n_summands
        if spec.symmetry_reduction:
            slots[-1] = [0] + [m for m in slots[-1] if (m >> ident) & 1]
        for reversed_masks in itertools.product(*reversed(slots)):
            masks = reversed_masks[::-1]
            if not all(passes(m, i == len(masks) - 1) for i, m in enumerate(masks)):
                skipped += 1
                continue
            sets = [FinSet.from_mask(a, m) for m in masks]
            try:
                verdict = chk.run(sets)
            except PreconditionViolated:
                skipped += 1
                continue
            checked += 1
            if verdict.holds is False:
                violations.append((a.describe(), [s.to_json() for s in sets]))
    return checked, skipped, violations


def _slab_reports(monkeypatch, spec):
    """The reports of spec with the checker's slab entry forced off, then
    on, and what came of each head that reached the runner with it on:
    its verdict's holds, or "skipped"."""
    name = resolve_checker(spec.checker)
    chk = search_mod.CHECKERS[name]
    calls = []

    def run(sets):
        calls.append("skipped")
        verdict = chk.run(sets)  # a PreconditionViolated leaves "skipped"
        calls[-1] = verdict.holds
        return verdict

    reports = []
    for slab in (None, chk.slab):
        monkeypatch.setitem(
            search_mod.CHECKERS, name, dataclasses.replace(chk, run=run, slab=slab)
        )
        calls.clear()
        reports.append(run_search(spec))
    monkeypatch.setitem(search_mod.CHECKERS, name, chk)
    return reports, calls


def _slab_check(monkeypatch, specs):
    """Each spec's report is the same with slab entries off and on, at the
    default chunk and at chunk 37, and matches brute force."""
    default = []
    for spec in specs:
        (off, on), _ = _slab_reports(monkeypatch, spec)
        assert on.stable_json() == off.stable_json(), spec
        default.append(_stable(on))
    monkeypatch.setattr(search_mod, "_CHUNK_EXHAUSTIVE", 37)
    for spec, want in zip(specs, default):
        (off, on), fallback = _slab_reports(monkeypatch, spec)
        assert on.stable_json() == off.stable_json(), spec
        got = _stable(on)
        for doc in (got, want):
            doc.pop("per_item")
        assert got == want, spec
        checked, skipped, violations = _brute_force(spec)
        assert (got["instances_checked"], got["instances_skipped"]) == (checked, skipped)
        assert [(v["ambient"], v["sets"]) for v in got["violations"]] == violations
        name = resolve_checker(spec.checker)
        # one summand leaves no tail to build a column over
        if spec.workers == 1 and spec.n_summands > 1 and search_mod.CHECKERS[name].slab:
            total = checked + skipped
            if all(a.axioms.cancellative for a in family_ambients(spec.family)):
                assert len(fallback) < total, spec
            else:
                assert len(fallback) == total, spec
            # an entry decides every head it can: the runner sees only the
            # heads it skips and the violations
            assert all(h in (False, "skipped") for h in fallback), spec


def test_slab_edges_match_default_chunks_and_brute_force(monkeypatch):
    _slab_check(monkeypatch, [SearchSpec(**s) for s in _SLAB_SPECS])


def test_slab_edges_keep_violation_order(monkeypatch):
    from cdlab.theorems import BoundReport

    real = search_mod.CHECKERS["udt"]

    def fake_run(sets):
        r = real.run(sets)
        if len(sets[0]) == 1 and len(sets[1]) == 1:
            return BoundReport(holds=False, lhs=r.lhs, rhs=r.rhs, detail=r.detail)
        return r

    monkeypatch.setitem(
        search_mod.CHECKERS, "udt", search_mod.Checker(2, fake_run)
    )
    spec = SearchSpec(
        family={"kind": "zmod_range", "lo": 3, "hi": 6},
        checker="udt",
        subset_filter=_NONEMPTY,
    )
    _slab_check(monkeypatch, [spec])


def test_slab_path_keeps_violation_order(monkeypatch):
    # with no unit in Y, branch (ii) is out of reach for the slab entry and
    # the runner alike, so every pair failing branch (i) is a real
    # violation, and the slab hands exactly those heads to the runner
    from cdlab import theorems

    monkeypatch.setattr(theorems, "units_of", lambda Y: FinSet(Y.ambient))
    spec = SearchSpec(
        family={"kind": "zmod_range", "lo": 2, "hi": 6},
        checker="theorem",
        subset_filter=_NONEMPTY,
    )
    (off, on), _ = _slab_reports(monkeypatch, spec)
    assert on.violations
    assert on.violations == off.violations
    for v in on.violations:
        ok, verdict = replay(v)  # replays with the patched units_of
        assert ok is False
        assert verdict == v["verdict"]
    _slab_check(monkeypatch, [spec])


def test_theorem_slab_decides_both_branches(monkeypatch):
    # every nonempty pair satisfies the dichotomy, and the slab entry
    # settles both branches from its column: no head reaches the runner
    for family in (
        {"kind": "zmod_range", "lo": 2, "hi": 8},
        {"kind": "abelian_up_to_order", "max_order": 8},
    ):
        spec = SearchSpec(family=family, checker="theorem", subset_filter=_NONEMPTY)
        (off, on), calls = _slab_reports(monkeypatch, spec)
        assert calls == [], family
        assert on.violations == []
        assert on.stable_json() == off.stable_json()


def test_conjecture_slab_hands_back_exactly_the_failing_heads():
    # three summands can fail the bound, as {0,4} + {0,4} + {0,1,4} over
    # Z8 does, but no exhaustive spec above reaches such a triple
    from cdlab import theorems

    rng = random.Random(8)
    failing = 0
    for desc in ({"kind": "zmod", "n": 8}, _Z2Z4):
        a = make_ambient(desc)
        tails = [[FinSet.from_mask(a, rng.randrange(256)) for _ in range(2)] for _ in range(12)]
        if desc["kind"] == "zmod":
            tails.append([FinSet(a, [0, 4]), FinSet(a, [0, 1, 4])])
        for tail in tails:
            want = [
                m for m in range(256)
                if theorems.conjecture_holds([FinSet.from_mask(a, m), *tail]).holds is False
            ]
            assert theorems.slab_conjecture(range(256), tail) == want, (desc, tail)
            failing += len(want)
    assert failing


def _gamma_at_inf(monkeypatch):
    """gamma = inf turns each bound into |X| + |Y| - 1 (or its hs form),
    which subgroups violate."""
    from cdlab import theorems
    from cdlab.extnat import INF
    from cdlab.gamma import GammaValue

    monkeypatch.setattr(theorems, "gamma_set", lambda X: GammaValue(INF))
    # the conjecture's runner reads the tuple's gamma; its slab entry reads
    # the tail parts through gamma_set, so with their gamma at inf every
    # failing head stays pending whatever the gamma memo holds for it
    monkeypatch.setattr(theorems, "gamma_tuple", lambda Xs: INF if all(Xs) else 0)


def test_slab_entries_vouch_only_where_the_runner_agrees(monkeypatch):
    # with gamma at inf, vouching for a failing head, or handing a tail
    # another class's heads, shows up as a missing or extra violation
    _gamma_at_inf(monkeypatch)
    specs = [
        SearchSpec(**s)
        for s in (
            dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="udt"),
            dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="hs"),
            dict(family={"kind": "zmod_range", "lo": 2, "hi": 5}, checker="theorem",
                 subset_filter=_NONEMPTY),
            dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="udt",
                 subset_filter={"contains_identity": True, "max_size": 3}),
            dict(family={"kind": "explicit", "ambients": [fixtures.s3().describe()]},
                 checker="hs"),
            dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="conjecture"),
            dict(family={"kind": "zmod_range", "lo": 1, "hi": 3}, checker="conjecture",
                 n_summands=3),
            dict(family={"kind": "abelian_up_to_order", "max_order": 4}, checker="conjecture",
                 subset_filter=_NONEMPTY),
            # the class memo over products, where a translate is no rotation
            dict(family={"kind": "explicit", "ambients": [_Z2_3]}, checker="udt",
                 subset_filter={"max_size": 3}),
            dict(family={"kind": "explicit", "ambients": [_Z3Z3]}, checker="theorem",
                 subset_filter={"nonempty": True, "max_size": 2}),
        )
    ]
    for spec in specs[:2] + specs[5:9]:
        (off, on), _ = _slab_reports(monkeypatch, spec)
        assert on.violations
        assert on.violations == off.violations
    _slab_check(monkeypatch, specs)


# checkers the class memo serves, over products where the least
# translate is not a rotation, with filters and symmetry reduction
_MEMO_SPECS = [
    dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="udt",
         subset_filter={"max_size": 3}),
    dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="theorem",
         subset_filter=_NONEMPTY, symmetry_reduction=True),
    dict(family={"kind": "explicit", "ambients": [_Z2_3]}, checker="theorem",
         subset_filter={"nonempty": True, "max_size": 4}),
    dict(family={"kind": "explicit", "ambients": [_Z2_3, _Z3Z3]}, checker="udt",
         subset_filter={"max_size": 3, "contains_identity": True}),
    dict(family={"kind": "explicit", "ambients": [_Z3Z3]}, checker="conjecture",
         subset_filter={"max_size": 3}),
    dict(family={"kind": "abelian_up_to_order", "max_order": 4}, checker="conjecture",
         n_summands=3, subset_filter=_NONEMPTY),
    # over Z_n, where the memo also keys on orbits under x -> ux: a tail
    # finds the heads of a tail u^-1 of it, mapped back by u
    dict(family={"kind": "zmod_range", "lo": 5, "hi": 8}, checker="udt",
         subset_filter=_NONEMPTY),
    dict(family={"kind": "zmod_range", "lo": 8, "hi": 8}, checker="theorem",
         symmetry_reduction=True),
    # two-set tails, mapped by one unit
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="conjecture",
         n_summands=3),
    # each tail mask its own key, under the units alone
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="hs"),
    # below Z10, gamma at inf leaves every tail's pending heads fixed by each
    # unit, so only here does a head not mapped back by u drop a violation
    dict(family={"kind": "zmod_range", "lo": 10, "hi": 10}, checker="udt",
         subset_filter={"max_size": 4, "contains_identity": True}),
    dict(family={"kind": "zmod_range", "lo": 10, "hi": 10}, checker="hs",
         subset_filter={"max_size": 4, "contains_identity": True}),
    # hs over a product: translation classes of heads, each tail its own key
    dict(family={"kind": "explicit", "ambients": [_Z2Z4]}, checker="hs",
         subset_filter={"max_size": 3}),
    # the free monoid on no letters is the trivial group, so a product with
    # it takes symmetry reduction and the memo like Z5 itself
    dict(family={"kind": "explicit", "ambients": [{"kind": "product", "factors": [
        {"kind": "free_monoid", "alphabet": []}, {"kind": "zmod", "n": 5}]}]},
         checker="udt", symmetry_reduction=True),
]


def _memo_off(monkeypatch):
    """Give the search the identity class table and the identity unit
    alone: every mask is its own class and its own orbit, so the memo is
    keyed on each tail mask itself and the entry runs on every head."""

    def identity_table(a):
        size = 1 << a.carrier_size
        return list(range(size)), [[m] for m in range(size)]

    monkeypatch.setattr(search_mod, "_translation_classes", identity_table)
    monkeypatch.setattr(search_mod, "_unit_maps", lambda a: [lambda m: m])


def test_class_memo_matches_the_memo_off_and_brute_force(monkeypatch):
    # gamma at inf makes violations common, so a class given another
    # class's heads, or a pending head expanded to too few or too many
    # translates, changes the report; at chunk 37 an item holds a few slabs
    specs = [SearchSpec(**s) for s in _MEMO_SPECS]
    for chunk, gamma_inf in ((search_mod._CHUNK_EXHAUSTIVE, False), (37, True)):
        with monkeypatch.context() as mp:
            mp.setattr(search_mod, "_CHUNK_EXHAUSTIVE", chunk)
            if gamma_inf:
                _gamma_at_inf(mp)
            on = []
            for spec in specs:
                on.append(_stable(run_search(spec)))
            _memo_off(mp)
            for spec, want in zip(specs, on):
                assert _stable(run_search(spec)) == want, (chunk, gamma_inf, spec)
    _slab_check(monkeypatch, specs)


def _translate(X, g):
    a = X.ambient
    return FinSet(a, [a.add(x, g) for x in X])


def _units(a):
    """The units of Z_n, the identity first, from gcd; 0 in Z1."""
    return [u for u in range(1, a.n) if math.gcd(u, a.n) == 1] or [0]


def _scale(X, u):
    """uX over Z_n, from the elements."""
    return FinSet(X.ambient, [u * x % X.ambient.n for x in X])


def _class_of(X):
    """The masks of every translate of X, from the elements."""
    return frozenset(_translate(X, g).raw for g in X.ambient.carrier())


def _classes(a, admits):
    """The number of translation classes of the admitted subsets of a,
    from the elements."""
    found = set()
    for m in range(1 << a.carrier_size):
        if admits(m):
            found.add(_class_of(FinSet.from_mask(a, m)))
    return len(found)


def _entry_calls(monkeypatch, spec):
    """The ambient of each call of the checker's slab entry in spec's
    search, with how many classes the memo held at that call and the
    heads the entry was given."""
    name = resolve_checker(spec.checker)
    chk = search_mod.CHECKERS[name]
    calls = []
    contexts = []
    run_item = search_mod._run_item

    def run_ctx_item(ctx, item, work):
        contexts.append(ctx)
        return run_item(ctx, item, work)

    def slab(heads, tail):
        _, (_, _, classes) = contexts[-1]._view
        held = 0 if classes is None else len(classes[3])
        calls.append((tail[0].ambient, held, list(heads)))
        return chk.slab(heads, tail)

    monkeypatch.setitem(search_mod.CHECKERS, name, dataclasses.replace(chk, slab=slab))
    monkeypatch.setattr(search_mod, "_run_item", run_ctx_item)
    run_search(spec)
    monkeypatch.setitem(search_mod.CHECKERS, name, chk)
    monkeypatch.setattr(search_mod, "_run_item", run_item)
    return calls


def _orbit_walk(a, admits, translates):
    """The memo's size at each slab entry call of a search whose tails are
    one set over a, from the elements.  Tails come in ascending mask
    order, the first admitted tail of each orbit calls the entry, and the
    memo then holds one key per class of each orbit met before.  Orbits
    are taken under x -> ux + g over Z_n and x -> x + g elsewhere; when
    translates is false, under x -> ux alone, each mask its own class."""
    units = _units(a) if a.kind == "zmod" else []
    seen, held = set(), []
    for m in range(1 << a.carrier_size):
        if not admits(m):
            continue
        X = FinSet.from_mask(a, m)
        images = [X] + [_scale(X, u) for u in units]
        orbit = {_class_of(Y) if translates else Y.raw for Y in images}
        if not orbit & seen:
            held.append(len(seen))
            seen |= orbit
    return held


def test_class_memo_serves_every_entry_over_abelian_groups(monkeypatch):
    # no memo off abelian groups: one entry call per admitted tail, as
    # without it
    for family, checker, flt in (
        ({"kind": "explicit", "ambients": [fixtures.s3().describe()]}, "theorem", {}),
        ({"kind": "explicit", "ambients": [fixtures.s3().describe()]}, "hs", {}),
        ({"kind": "explicit", "ambients": [fixtures.d4().describe()]}, "udt", {}),
        ({"kind": "explicit", "ambients": [fixtures.q8().describe()]}, "udt", _NONEMPTY),
        ({"kind": "explicit", "ambients": [fixtures.left_zero_band(3).describe()]}, "udt", {}),
    ):
        spec = SearchSpec(family=family, checker=checker, subset_filter=flt)
        calls = _entry_calls(monkeypatch, spec)
        tails = sum((1 << a.carrier_size) - bool(flt) for a in family_ambients(family))
        assert len(calls) == tails and all(held == 0 for _, held, _ in calls), family
    # memo over every abelian group: one entry call per orbit of admitted
    # tails, across the item boundary inside Z8, under x -> ux + g over Z_n
    # and x -> x + g over products; hs, which tail translations move, keys
    # each tail mask itself, so over Z_n its orbits are under x -> ux and
    # over a product each admitted tail calls the entry.  At each call the
    # memo holds the keys of the orbits met before
    for family, checker, flt in (
        ({"kind": "zmod_range", "lo": 1, "hi": 8}, "udt", {}),
        ({"kind": "zmod_range", "lo": 1, "hi": 6}, "hs", {}),
        ({"kind": "zmod_range", "lo": 1, "hi": 7}, "hs", {"nonempty": True, "max_size": 3}),
        ({"kind": "explicit", "ambients": [_Z2Z4, _Z2_3]}, "udt", _NONEMPTY),
        ({"kind": "explicit", "ambients": [_Z3Z3]}, "udt", {"max_size": 3}),
        ({"kind": "explicit", "ambients": [_Z2Z4, _Z2_3]}, "hs", {}),
    ):
        spec = SearchSpec(family=family, checker=checker, subset_filter=flt)
        calls = _entry_calls(monkeypatch, spec)
        cap = flt.get("max_size", 1 << 9)
        translates = search_mod.CHECKERS[checker].translation_invariant
        for a in family_ambients(family):
            held = _orbit_walk(
                a, lambda m: m.bit_count() <= cap and (m or not flt.get("nonempty")), translates
            )
            assert [h for b, h, _ in calls if b == a] == held, (family, checker, a)


def test_class_memo_runs_the_entry_on_one_head_per_class(monkeypatch):
    # the entry is given exactly one admitted head per class of admitted
    # heads, the least of each, in order, for every class of tails
    for family in (
        {"kind": "zmod_range", "lo": 1, "hi": 8},
        {"kind": "explicit", "ambients": [_Z2Z4, _Z2_3, _Z3Z3]},
    ):
        for checker, flt in (("udt", _NONEMPTY), ("theorem", {"max_size": 3}),
                             ("udt", {"nonempty": True, "max_size": 2}), ("hs", {}),
                             ("hs", {"nonempty": True, "max_size": 3})):
            spec = SearchSpec(family=family, checker=checker, subset_filter=flt)
            calls = _entry_calls(monkeypatch, spec)
            cap = flt.get("max_size", 1 << 9)

            def admits(m):
                return m.bit_count() <= cap and (m or not flt.get("nonempty"))

            for a in family_ambients(family):
                given = [heads for b, _, heads in calls if b == a]
                assert given, (family, checker, a)
                heads = given[0]
                assert all(h == heads for h in given), (family, checker, a)
                assert heads == sorted(heads) and all(admits(m) for m in heads)
                classes = [_class_of(FinSet.from_mask(a, m)) for m in heads]
                assert [min(c) for c in classes] == heads, (family, checker, a)
                assert len(set(classes)) == len(heads) == _classes(a, admits), (family, a)


def test_class_memo_agrees_across_workers(monkeypatch):
    # items of at least 1000 instances hold eight slabs of Z7 each, so a
    # class's tails fall in several items, run by different workers
    monkeypatch.setattr(search_mod, "_CHUNK_EXHAUSTIVE", 1000)
    base = dict(
        family={"kind": "explicit", "ambients": [{"kind": "zmod", "n": n} for n in (2, 3, 5, 7)]},
        checker="udt",
        subset_filter=_NONEMPTY,
    )
    one, two = (_stable(run_search(SearchSpec(**base, workers=w))) for w in (1, 2))
    assert len(one["per_item"]) > 10
    assert one == two
    with monkeypatch.context() as mp:
        _memo_off(mp)
        assert _stable(run_search(SearchSpec(**base, workers=2))) == one


def test_a_run_keeps_nothing_for_the_next(monkeypatch):
    # the class memo of a first run over Z6 must not vouch, in a second
    # run of the same spec, for heads that gamma at inf makes fail
    spec = SearchSpec(family={"kind": "zmod_range", "lo": 6, "hi": 6}, checker="udt",
                      subset_filter=_NONEMPTY)
    assert run_search(spec).violations == []
    _gamma_at_inf(monkeypatch)
    _, _, want = _brute_force(spec)
    assert want
    assert [(v["ambient"], v["sets"]) for v in run_search(spec).violations] == want


def test_no_context_outlives_its_run(monkeypatch):
    contexts = []

    class Context(search_mod._Context):
        def __init__(self, spec):
            super().__init__(spec)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(search_mod, "_Context", Context)
    for workers in (1, 2):
        run_search(SearchSpec(family={"kind": "zmod_range", "lo": 1, "hi": 8}, checker="udt",
                              subset_filter=_NONEMPTY, workers=workers))
    gc.collect()
    assert len(contexts) == 2 and all(ref() is None for ref in contexts)


# theorem over Z2..Z8 is two items, so at workers=2 the parent runs item 0
# and one forked child runs item 1
_TWO_ITEMS = dict(family={"kind": "zmod_range", "lo": 2, "hi": 8}, checker="theorem",
                  subset_filter=_NONEMPTY, workers=2)


def _patch_item(monkeypatch, act):
    """Make run_search call act(item) before running each item."""
    real = search_mod._run_item

    def run_item(ctx, item, work):
        act(item)
        return real(ctx, item, work)

    monkeypatch.setattr(search_mod, "_run_item", run_item)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_worker_fails_the_search_at_once(monkeypatch):
    def act(item):
        if item == 1:
            os.kill(os.getpid(), signal.SIGKILL)

    _patch_item(monkeypatch, act)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"search worker \d+ .*wait status 9\b"):
        run_search(SearchSpec(**_TWO_ITEMS))
    assert time.monotonic() - started < 5
    _assert_no_child_left()


def test_a_worker_exception_keeps_its_type(monkeypatch, capsys):
    from cdlab.cli import main
    from cdlab.errors import InvariantBroken

    def act(item):
        if item == 1:
            raise InvariantBroken(f"item {item}")

    _patch_item(monkeypatch, act)
    with pytest.raises(InvariantBroken, match="item 1"):
        run_search(SearchSpec(**_TWO_ITEMS))
    _assert_no_child_left()
    spec = json.dumps({k: v for k, v in _TWO_ITEMS.items() if k != "workers"})
    assert main(["search", "--spec", spec, "--workers", "2"]) == 3
    assert "item 1" in capsys.readouterr().err
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_failing_parent_share_kills_its_workers(monkeypatch, error):
    # the child's item would run for a minute; the parent's own item fails
    def act(item):
        if item == 1:
            time.sleep(60)
        raise error(f"item {item}")

    _patch_item(monkeypatch, act)
    started = time.monotonic()
    with pytest.raises(error, match="item 0"):
        run_search(SearchSpec(**_TWO_ITEMS))
    assert time.monotonic() - started < 5
    _assert_no_child_left()


def test_violations_keep_item_order_across_workers(monkeypatch):
    # with gamma at inf every subgroup pair fails udt; items of at least
    # 1000 instances cut Z2..Z7 into many items, which one, two and three
    # processes split into runs whose records come back through pipes
    _gamma_at_inf(monkeypatch)
    monkeypatch.setattr(search_mod, "_CHUNK_EXHAUSTIVE", 1000)
    base = dict(family={"kind": "zmod_range", "lo": 2, "hi": 7}, checker="udt",
                subset_filter=_NONEMPTY)
    reports = [run_search(SearchSpec(**base, workers=w)) for w in (1, 2, 3)]
    assert len(reports[0].per_item) > 3 and reports[0].violations
    assert reports[0].violations == reports[1].violations == reports[2].violations
    assert _stable(reports[0]) == _stable(reports[1]) == _stable(reports[2])
    _assert_no_child_left()


def test_import_cdlab_loads_neither_multiprocessing_nor_hashlib():
    # both count in every search's setup time: workers are forked directly,
    # and random mode alone loads the sampler and hashlib with it
    src = str(Path(search_mod.__file__).resolve().parent.parent)
    code = (
        "import sys, cdlab; print(cdlab.__file__); "
        "print([m for m in ('multiprocessing', 'hashlib') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src)
    assert loaded == "[]"


def _payloads(monkeypatch, spec):
    """The work of each item run_search builds for spec, in item order;
    no item is run."""
    works = []

    def run_item(ctx, item, work):
        works.append(work)
        return {"item": item, "checked": 0, "skipped": 0, "violations": []}

    monkeypatch.setattr(search_mod, "_run_item", run_item)
    run_search(spec)
    return works


def _slabs(spec):
    """(slab width, slab count) of each ambient of an exhaustive spec,
    from the carrier sizes: the last slot of a reduced spec runs over the
    empty mask and the 2^(n-1) masks holding the identity."""
    out = []
    for a in family_ambients(spec.family):
        bases = [1 << a.carrier_size] * spec.n_summands
        if spec.symmetry_reduction:
            bases[-1] = (1 << (a.carrier_size - 1)) + 1
        out.append((bases[0], math.prod(bases[1:])))
    return out


_LAYOUT_SPECS = [
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="udt"),
    dict(family={"kind": "explicit", "ambients": [_Z2Z4, _Z2_3, _Z3Z3]}, checker="theorem",
         subset_filter=_NONEMPTY),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 4}, checker="conjecture",
         n_summands=3, symmetry_reduction=True),
    dict(family={"kind": "zmod_range", "lo": 1, "hi": 9}, checker="conjecture",
         n_summands=1, symmetry_reduction=True),
]


def test_exhaustive_items_are_runs_of_whole_slabs(monkeypatch):
    for chunk in (search_mod._CHUNK_EXHAUSTIVE, 37, 1000):
        monkeypatch.setattr(search_mod, "_CHUNK_EXHAUSTIVE", chunk)
        for doc in _LAYOUT_SPECS:
            spec = SearchSpec(**doc)
            slabs = _slabs(spec)
            items = _payloads(monkeypatch, spec)
            walked = [(ai, s) for item in items for ai, first, end in item for s in range(first, end)]
            assert walked == [(ai, s) for ai, (_, n) in enumerate(slabs) for s in range(n)]
            for item in items[:-1]:
                size = sum((end - first) * slabs[ai][0] for ai, first, end in item)
                last_width = slabs[item[-1][0]][0]
                assert chunk <= size < chunk + last_width, (chunk, doc, item)


def test_bench_specs_keep_their_item_counts(monkeypatch):
    primes = {"kind": "explicit", "ambients": [{"kind": "zmod", "n": p} for p in (2, 3, 5, 7, 11)]}
    for doc, count in (
        (dict(family={"kind": "zmod_range", "lo": 2, "hi": 8}, checker="theorem",
              subset_filter=_NONEMPTY), 2),
        (dict(family=primes, checker="udt", subset_filter=_NONEMPTY), 65),
        (dict(family={"kind": "zmod_range", "lo": 1, "hi": 8}, checker="hs"), 2),
    ):
        assert len(_payloads(monkeypatch, SearchSpec(**doc))) == count, doc
    # random items stay runs of _CHUNK_RANDOM trials
    trials = 6 * 4096
    spec = SearchSpec(
        family={"kind": "abelian_up_to_order", "max_order": 10}, checker="conjecture",
        n_summands=3, subset_filter=_NONEMPTY,
        mode={"kind": "random", "seed": 1, "trials": trials},
    )
    assert _payloads(monkeypatch, spec) == [(s, s + 4096) for s in range(0, trials, 4096)]
    spec.mode = {"kind": "random", "seed": 1, "trials": 5000}
    assert _payloads(monkeypatch, spec) == [(0, 4096), (4096, 5000)]


def test_bench_specs_keep_their_entry_call_counts(monkeypatch):
    # one slab entry call per orbit of tails under x -> ux + g (x -> ux for
    # hs), each given one head per translation class of admitted heads; a
    # memo that serves fewer tails, or hands the entry more heads, shows
    # here, not only in the bench
    primes = {"kind": "explicit", "ambients": [{"kind": "zmod", "n": p} for p in (2, 3, 5, 7, 11)]}
    for doc, count, heads in (
        (dict(family=primes, checker="udt", subset_filter=_NONEMPTY), 48, 5642),
        (dict(family={"kind": "zmod_range", "lo": 2, "hi": 8}, checker="theorem",
              subset_filter=_NONEMPTY), 59, 1205),
        (dict(family={"kind": "zmod_range", "lo": 1, "hi": 8}, checker="hs"), 200, 4784),
    ):
        calls = _entry_calls(monkeypatch, SearchSpec(**doc))
        assert len(calls) == count, doc
        assert sum(len(given) for _, _, given in calls) == heads, doc


def _holds(chk, sets):
    return chk.run(sets).holds


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionViolated:
        return "skipped"


_GROUPS = enumerate_abelian_groups(10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_checkers_ignore_head_translates_and_keep_their_symmetries(data):
    # the symmetry contract of Checker over an abelian group: translating
    # the head alone leaves every checker's holds unchanged, and every slab
    # entry, given every head, hands back whole translation classes of
    # heads; the flag adds that translating each set by an element of its
    # own leaves the runner's holds, and the slab entry's heads for the
    # tail, unchanged; and over Z_n every checker's holds is unchanged when
    # every set is mapped by x -> ux for a unit u, while its slab entry
    # hands back the u-images of its heads
    a = data.draw(st.sampled_from(_GROUPS), label="ambient")
    n = a.carrier_size
    heads = list(range(1 << n))
    for name, chk in sorted(search_mod.CHECKERS.items()):
        if chk.ambient_kind not in (None, a.kind):
            continue
        k = chk.arity or 3  # the conjecture: a head and a tail of two sets
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k), label=name)
        sets = [FinSet.from_mask(a, m) for m in masks]
        holds = _outcome(_holds, chk, sets)
        handed = chk.slab and _outcome(chk.slab, heads, sets[1:])
        g = data.draw(st.sampled_from(a.carrier()), label=f"{name} head shift")
        assert _outcome(_holds, chk, [_translate(sets[0], g), *sets[1:]]) == holds, (name, g)
        if chk.slab is not None and handed != "skipped":
            kept = set(handed)
            for m in handed:
                assert _class_of(FinSet.from_mask(a, m)) <= kept, (name, m)
        if chk.translation_invariant:
            shifts = data.draw(st.lists(st.sampled_from(a.carrier()), min_size=k, max_size=k))
            moved = [_translate(X, g) for X, g in zip(sets, shifts)]
            assert _outcome(_holds, chk, moved) == holds, name
            if chk.slab is not None:
                assert _outcome(chk.slab, heads, moved[1:]) == handed, name
        if a.kind != "zmod":
            continue
        for u in _units(a):
            scaled = [_scale(X, u) for X in sets]
            assert _outcome(_holds, chk, scaled) == holds, (name, u)
            if chk.slab is not None:
                want = handed
                if handed != "skipped":
                    want = sorted(_scale(FinSet.from_mask(a, m), u).raw for m in handed)
                assert _outcome(chk.slab, heads, scaled[1:]) == want, (name, u)


def _counted_decodes(monkeypatch):
    """The masks FinSet.from_mask decodes from now on, with the search's
    decode memo emptied first."""
    decoded = []
    real = FinSet.from_mask

    def from_mask(a, mask):
        decoded.append((a, mask))
        return real(a, mask)

    monkeypatch.setattr(FinSet, "from_mask", staticmethod(from_mask))
    search_mod._decode.cache_clear()
    return decoded


def test_exhaustive_search_decodes_only_the_sets_it_reads(monkeypatch):
    # udt vouches for every nonempty head over Z_n, so only the tails,
    # one per admitted mask of slot 1, are decoded
    decoded = _counted_decodes(monkeypatch)
    spec = SearchSpec(
        family={"kind": "zmod_range", "lo": 2, "hi": 9}, checker="udt", subset_filter=_NONEMPTY
    )
    rep = run_search(spec)
    assert rep.instances_checked == sum((2**n - 1) ** 2 for n in range(2, 10))
    assert len(decoded) <= sum(2**n - 1 for n in range(2, 10))
    ctx = search_mod._Context(spec)
    assert all(type(d) is int for ai in range(len(ctx.ambients)) for d in ctx.view(ai)[0])

    # theorem: the tails plus the heads its slab entry hands back, each
    # standing for its translation class; it settles both branches, so
    # over Z_n it hands back none
    from cdlab import theorems

    chk = search_mod.CHECKERS["theorem"]
    handed = set()

    def slab(heads, tail):
        pending = chk.slab(heads, tail)
        a = tail[0].ambient
        handed.update((a, t) for m in pending for t in _class_of(FinSet.from_mask(a, m)))
        return pending

    monkeypatch.setitem(search_mod.CHECKERS, "theorem", dataclasses.replace(chk, slab=slab))
    spec = SearchSpec(
        family={"kind": "zmod_range", "lo": 2, "hi": 7}, checker="theorem", subset_filter=_NONEMPTY
    )
    tails = sum(2**n - 1 for n in range(2, 8))
    decoded = _counted_decodes(monkeypatch)
    rep = run_search(spec)
    assert rep.violations == [] and not handed
    assert len(decoded) <= tails

    # with no unit in Y it hands back every head failing branch (i)
    monkeypatch.setattr(theorems, "units_of", lambda Y: FinSet(Y.ambient))
    decoded = _counted_decodes(monkeypatch)
    rep = run_search(spec)
    assert rep.violations and handed
    assert len(decoded) <= tails + len(handed)


def test_reduced_slot_zero_runs_the_sets_holding_the_identity(monkeypatch):
    # with one summand, slot 0 is the reduced slot: its heads are the
    # empty mask and the masks holding the identity, and the runner must
    # see those sets, in order
    real = search_mod.CHECKERS["conjecture"]
    seen = []

    def run(sets):
        seen.append(sets[0])
        return real.run(sets)

    monkeypatch.setitem(search_mod.CHECKERS, "conjecture", dataclasses.replace(real, run=run))
    run_search(SearchSpec(
        family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="conjecture",
        n_summands=1, symmetry_reduction=True,
    ))
    want = [
        FinSet.from_mask(a, m)
        for a in family_ambients({"kind": "zmod_range", "lo": 1, "hi": 6})
        for m in range(1 << a.carrier_size)
        if m == 0 or m & 1
    ]
    assert seen == want
