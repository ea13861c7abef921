import itertools
import json

import pytest

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
from cdlab import search as search_mod
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
    with pytest.raises(CeilingExceeded):
        run_search(
            SearchSpec(
                family={"kind": "zmod_range", "lo": 12, "hi": 12},
                checker="theorem",
                ceiling=1000,
            )
        )
    assert resolve_checker("theorem_main") == "theorem"


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


def test_violation_instances_replay(monkeypatch, fresh_context):
    # force a fake violation to exercise the encode/replay path end to end
    from cdlab import search as search_mod
    from cdlab.theorems import BoundReport

    real = search_mod.CHECKERS["udt"]

    def fake_run(sets, budget):
        r = real.run(sets, budget)
        if len(sets[0]) == 1 and len(sets[1]) == 1:
            return BoundReport(holds=False, lhs=r.lhs, rhs=r.rhs, detail=r.detail)
        return r

    monkeypatch.setitem(
        search_mod.CHECKERS,
        "udt",
        search_mod.Checker(2, fake_run, real.ok, real.encode),
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
# every checker, symmetry reduction, each subset filter, one to three
# summands and product ambients; chunks of 37 end inside slabs of Z6 and Z7
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
                verdict = chk.run(sets, spec.budget)
            except PreconditionViolated:
                skipped += 1
                continue
            checked += 1
            if chk.ok(verdict) is False:
                violations.append((a.describe(), [s.to_json() for s in sets]))
    return checked, skipped, violations


def _slab_check(monkeypatch, specs):
    def without_items(spec):
        doc = _stable(run_search(spec))
        doc.pop("per_item")
        return doc

    default = [without_items(s) for s in specs]
    monkeypatch.setattr(search_mod, "_CHUNK_EXHAUSTIVE", 37)
    search_mod._context.cache_clear()
    for spec, want in zip(specs, default):
        got = without_items(spec)
        assert got == want, spec
        checked, skipped, violations = _brute_force(spec)
        assert (got["instances_checked"], got["instances_skipped"]) == (checked, skipped)
        assert [(v["ambient"], v["sets"]) for v in got["violations"]] == violations


def test_slab_edges_match_default_chunks_and_brute_force(monkeypatch):
    _slab_check(monkeypatch, [SearchSpec(**s) for s in _SLAB_SPECS])


def test_slab_edges_keep_violation_order(monkeypatch, fresh_context):
    from cdlab.theorems import BoundReport

    real = search_mod.CHECKERS["udt"]

    def fake_run(sets, budget):
        r = real.run(sets, budget)
        if len(sets[0]) == 1 and len(sets[1]) == 1:
            return BoundReport(holds=False, lhs=r.lhs, rhs=r.rhs, detail=r.detail)
        return r

    monkeypatch.setitem(
        search_mod.CHECKERS, "udt", search_mod.Checker(2, fake_run, real.ok, real.encode)
    )
    spec = SearchSpec(
        family={"kind": "zmod_range", "lo": 3, "hi": 6},
        checker="udt",
        subset_filter=_NONEMPTY,
    )
    _slab_check(monkeypatch, [spec])
