import json
import random

import pytest

import oracles
from cdlab import (
    FinSet,
    INF,
    check_cor_hs,
    check_cor_udt,
    check_cor_zn,
    check_prop_equiv,
    check_theorem_main,
    check_weaker_bound,
    conjecture_holds,
    davenport_transform,
    delta_y,
    descent,
    enumerate_abelian_groups,
    gamma_set,
    make_ambient,
    min_order,
    sumset,
    units_of,
)
from cdlab.errors import AmbientMismatch, EmptySet, PreconditionViolated, WrongAmbient
from cdlab import fixtures, theorems

Z4 = make_ambient({"kind": "zmod", "n": 4})
Z5 = make_ambient({"kind": "zmod", "n": 5})
Z6 = make_ambient({"kind": "zmod", "n": 6})
Z7 = make_ambient({"kind": "zmod", "n": 7})
NAT = make_ambient({"kind": "nat_lattice", "dim": 1})
S3 = fixtures.s3()


def masks(a):
    return [FinSet.from_mask(a, m) for m in range(1 << a.carrier_size)]


# -- Davenport transform ---------------------------------------------------


def test_davenport_fixture_z5():
    pair = davenport_transform(FinSet(Z5, [0]), FinSet(Z5, [0, 1]), 2)
    assert pair.y_tilde.elements == (1,)
    assert pair.y_keep.elements == (0,)
    assert pair.all_hold
    s = pair.sides
    assert s["xy_size"] + s["y_keep_size"] >= s["xy_keep_size"] + s["y_size"]
    assert s["xy_size"] == 2 and s["y_size"] == 2


def test_davenport_fixture_z4():
    pair = davenport_transform(FinSet(Z4, [0]), FinSet(Z4, [0, 1]), 2)
    assert pair.y_tilde.elements == (1,)
    assert pair.y_keep.elements == (0,)
    assert pair.all_hold


def test_davenport_preconditions():
    with pytest.raises(PreconditionViolated):
        davenport_transform(FinSet(Z5, [0]), FinSet(Z5, [0, 1]), 1)  # z in X+Y
    with pytest.raises(PreconditionViolated):
        davenport_transform(FinSet(S3, [0]), FinSet(S3, [1, 2]), 3)  # <Y> noncomm


def _random_commutative_subset(rng, a, size_hint):
    elems = a.carrier()
    for _ in range(200):
        xs = {x for x in elems if rng.random() < size_hint}
        if not xs:
            continue
        ok = all(a.add(u, v) == a.add(v, u) for u in xs for v in xs)
        if ok:
            return xs
    return {a.identity}


def test_davenport_properties_randomized():
    rng = random.Random(71)
    ambients = [Z5, Z6, Z7, S3]
    done = 0
    while done < 400:
        a = ambients[rng.randrange(len(ambients))]
        xs = {x for x in a.carrier() if rng.random() < 0.4}
        ys = _random_commutative_subset(rng, a, 0.4)
        if not xs:
            continue
        X, Y = FinSet(a, xs), FinSet(a, ys)
        xy = sumset(X, Y)
        x2y = sumset(xy, Y)
        gap = [z for z in x2y.elements if z not in xy]
        if not gap:
            continue
        z = gap[rng.randrange(len(gap))]
        pair = davenport_transform(X, Y, z)
        assert pair.all_hold, (a.describe(), xs, ys, z, pair.witnesses)
        # recompute the split straight from the definition
        want_tilde = {
            y for y in ys if z in oracles.naive_sumset(a, xy.elements, [y])
        }
        assert set(pair.y_tilde.elements) == want_tilde
        done += 1


# -- dichotomy and equivalence ------------------------------------------------


def test_theorem_fixture_z4_structure():
    v = check_theorem_main(FinSet(Z4, [0, 2]), FinSet(Z4, [0, 2]))
    assert not v.branch_i
    assert v.branch_ii and v.structure_witness == 0
    assert v.disjunction_holds
    assert (v.bound_lhs, v.bound_rhs) == (2, 3)
    assert v.gamma_y == 2


def test_theorem_fixture_z5_bound():
    v = check_theorem_main(FinSet(Z5, [0, 1]), FinSet(Z5, [0, 1]))
    assert v.branch_i and v.bound_lhs == 3 and v.bound_rhs == 3


def test_theorem_singleton_y():
    v = check_theorem_main(FinSet(Z5, [0, 2]), FinSet(Z5, [3]))
    assert v.branch_i and v.bound_rhs == 2


def test_theorem_preconditions():
    with pytest.raises(PreconditionViolated):
        check_theorem_main(FinSet(Z5, [0]), FinSet(Z5, []))
    with pytest.raises(PreconditionViolated):
        check_theorem_main(FinSet(S3, [0]), FinSet(S3, [1, 2]))


def test_theorem_exhaustive_small_and_noncommutative_ambient():
    for n in (2, 3, 4, 5, 6):
        a = make_ambient({"kind": "zmod", "n": n})
        sets = masks(a)
        for X in sets:
            for Y in sets[1:]:
                assert check_theorem_main(X, Y).disjunction_holds
    rng = random.Random(73)
    for _ in range(300):
        xs = {x for x in range(6) if rng.random() < 0.5}
        ys = _random_commutative_subset(rng, S3, 0.4)
        v = check_theorem_main(FinSet(S3, xs), FinSet(S3, ys))
        assert v.disjunction_holds


def test_theorem_on_infinite_monoid():
    rng = random.Random(74)
    for _ in range(200):
        xs = {(rng.randrange(25),) for _ in range(rng.randrange(1, 7))}
        ys = {(rng.randrange(25),) for _ in range(rng.randrange(1, 7))}
        v = check_theorem_main(FinSet(NAT, xs), FinSet(NAT, ys))
        assert v.disjunction_holds


def test_prop_equiv_fixtures():
    v = check_prop_equiv(FinSet(Z4, [0, 2]), FinSet(Z4, [0, 2]))
    assert v.cond_i and v.cond_ii and v.cond_iii and v.agree
    v = check_prop_equiv(FinSet(Z5, [0]), FinSet(Z5, [0, 1]))
    assert not v.cond_i and not v.cond_ii and not v.cond_iii and v.agree
    v = check_prop_equiv(FinSet(Z5, []), FinSet(Z5, [0, 1]))
    assert v.cond_i and v.cond_ii and v.cond_iii and v.agree


def test_prop_equiv_reports_a_counterwitness(monkeypatch):
    # (i) and (ii) hold on Z4 with X = Y = {0, 2}; a (iii) forced false
    # must come back as a disagreement carrying all three and the sets
    monkeypatch.setattr(theorems, "_third_condition", lambda *args: False)
    X = Y = FinSet(Z4, [0, 2])
    v = check_prop_equiv(X, Y)
    assert v.cond_i and v.cond_ii and not v.cond_iii
    assert v.agree is False and v.holds is False
    assert v.counterwitness == {
        "cond_i": True, "cond_ii": True, "cond_iii": False, "x": [0, 2], "y": [0, 2],
    }
    assert v.to_json()["counterwitness"] == v.counterwitness


def test_prop_equiv_needs_units():
    with pytest.raises(PreconditionViolated):
        check_prop_equiv(FinSet(NAT, [(0,)]), FinSet(NAT, [(1,), (2,)]))


def test_prop_equiv_on_nat_with_identity():
    rng = random.Random(75)
    for _ in range(150):
        xs = {(rng.randrange(12),) for _ in range(rng.randrange(1, 5))}
        ys = {(0,)} | {(rng.randrange(1, 12),) for _ in range(rng.randrange(0, 4))}
        v = check_prop_equiv(FinSet(NAT, xs), FinSet(NAT, ys))
        assert v.agree


# -- corollaries ---------------------------------------------------------------


def test_udt_fixtures():
    r = check_cor_udt(FinSet(Z7, [0, 1, 2]), FinSet(Z7, [0, 1]))
    assert r.holds and r.lhs == 4 and r.rhs == 4
    r = check_cor_udt(FinSet(Z5, [0, 2]), FinSet(Z5, []))
    assert r.holds and r.rhs == 0
    r = check_cor_udt(FinSet(NAT, [(0,), (1,)]), FinSet(NAT, [(0,), (5,)]))
    assert r.holds and r.lhs == 4 and r.rhs == 3
    with pytest.raises(PreconditionViolated):
        check_cor_udt(FinSet(Z5, []), FinSet(Z5, [0]))


def test_hs_fixtures():
    r = check_cor_hs(FinSet(Z5, [0]), FinSet(Z5, [1]))
    assert r.status == "checked" and r.holds and r.lhs == 2 and r.rhs == 2
    r = check_cor_hs(FinSet(Z5, [0, 3]), FinSet(Z5, [0]))
    assert r.status == "hypothesis_not_met" and r.holds is None
    r = check_cor_hs(FinSet(NAT, [(0,)]), FinSet(NAT, [(1,)]))
    assert r.status == "checked" and r.holds
    assert r.detail["closure"] == "infinite"
    r = check_cor_hs(FinSet(Z5, []), FinSet(Z5, [1]))
    assert r.status == "hypothesis_not_met"


def test_delta_fixtures():
    assert delta_y(FinSet(Z6, [4])) == 1
    assert delta_y(FinSet(Z6, [0, 2])) == 2
    assert gamma_set(FinSet(Z6, [0, 2])).value == 3
    with pytest.raises(WrongAmbient):
        delta_y(FinSet(NAT, [(1,)]))
    with pytest.raises(EmptySet):
        delta_y(FinSet(Z6, []))


def test_zn_bound_fixture_resolved_by_brute_force():
    # X = {0,1}, Y = {0,1} mod 5: direct enumeration shows X + 2Y differs
    # from every X + Y + y, so the hypothesis is met and the bound is
    # |X| + min(n/delta, |Y| - 1) = 2 + min(5, 1) = 3 = |X + Y|
    X, Y = FinSet(Z5, [0, 1]), FinSet(Z5, [0, 1])
    x2y = oracles.naive_sumset(Z5, oracles.naive_sumset(Z5, X.elements, Y.elements), Y.elements)
    for y in Y.elements:
        shifted = oracles.naive_sumset(
            Z5, oracles.naive_sumset(Z5, X.elements, Y.elements), [y]
        )
        assert shifted != x2y
    r = check_cor_zn(X, Y)
    assert r.status == "checked"
    assert r.holds and r.lhs == 3 and r.rhs == 3


def test_zn_hypothesis_not_met_for_singleton():
    r = check_cor_zn(FinSet(Z6, [1, 2]), FinSet(Z6, [3]))
    assert r.status == "hypothesis_not_met" and r.holds is None


def test_zn_exhaustive_small():
    # wherever the hypothesis is met the cyclic bound holds, and the
    # delta identity ties gamma to n/delta
    for n in range(2, 9):
        a = make_ambient({"kind": "zmod", "n": n})
        sets = masks(a)
        for X in sets[1:]:
            for Y in sets[1:]:
                r = check_cor_zn(X, Y)
                if r.status == "checked":
                    assert r.holds, (n, X.elements, Y.elements, r)


def test_weaker_bound_fixtures():
    r = check_weaker_bound(FinSet(Z6, [0, 3]), FinSet(Z6, [0, 3]))
    assert r.holds and r.lhs == 2 and r.rhs == 2
    r = check_weaker_bound(FinSet(Z6, [2]), FinSet(Z6, [5]))
    assert r.holds and r.lhs == 1 and r.rhs == 1
    r = check_weaker_bound(FinSet(Z7, [0, 1]), FinSet(Z7, [0, 1]))
    assert r.holds and r.lhs == 3 and r.rhs == 3


def test_conjecture_fixtures():
    r = conjecture_holds([FinSet(Z5, [0, 1])])
    assert r.holds
    r = conjecture_holds([FinSet(Z5, [0, 1])] * 3)
    assert r.holds and r.lhs == 4 and r.rhs == 4
    r = conjecture_holds([FinSet(Z5, []), FinSet(Z5, [0, 1])])
    assert r.holds and r.lhs == 0 and r.rhs <= 0


def test_conjecture_three_summand_counterexample_is_reported():
    # smallest violating triple of the n-ary max-form bound: in Z8 the
    # pair {0,4} + {0,4} collapses onto the order-2 subgroup, while the
    # third set contributes a tuple constant of 8 through gamma({0,1,4});
    # the checker must report the failure honestly (lhs 4 against rhs 5),
    # and independent enumeration confirms it
    z8 = make_ambient({"kind": "zmod", "n": 8})
    sets = [FinSet(z8, [0, 4]), FinSet(z8, [0, 4]), FinSet(z8, [0, 1, 4])]
    r = conjecture_holds(sets)
    assert r.holds is False
    assert r.lhs == 4 and r.rhs == 5
    assert r.detail["gamma_tuple"] == 8
    acc = set(sets[0].elements)
    for S in sets[1:]:
        acc = oracles.naive_sumset(z8, acc, S.elements)
    assert len(acc) == 4
    assert max(oracles.brute_gamma(z8, S.elements) for S in sets) == 8
    # the two-summand reading of the same sets stays within the bound
    for i in range(3):
        for j in range(3):
            assert conjecture_holds([sets[i], sets[j]]).holds


def _oracle_conjecture(a, sets):
    """The verdict of conjecture_holds from the definitions: the sumset
    folded pair by pair, the max of the brute-force constants, or 0 when a
    set is empty."""
    acc = set(sets[0].elements)
    for S in sets[1:]:
        acc = oracles.naive_sumset(a, acc, S.elements)
    sizes = [len(S.elements) for S in sets]
    gam = 0 if not all(sizes) else max(oracles.brute_gamma(a, S.elements) for S in sets)
    additive = sum(sizes) + 1 - len(sets)
    rhs = int(min(gam, additive))
    return {
        "holds": len(acc) >= rhs,
        "lhs": len(acc),
        "rhs": rhs,
        "status": "checked",
        "detail": {
            "gamma_tuple": "inf" if gam == INF else gam,
            "sizes": sizes,
            "additive_side": additive,
        },
    }


@pytest.mark.parametrize("a", enumerate_abelian_groups(10), ids=lambda a: json.dumps(a.describe()))
def test_conjecture_runner_matches_the_oracles(a):
    rng = random.Random(f"conjecture:{a.describe()}")
    n = a.carrier_size
    for _ in range(60):
        k = rng.randint(1, 4)
        masks = [0 if rng.random() < 0.15 else rng.randrange(1 << n) for _ in range(k)]
        sets = [FinSet.from_mask(a, m) for m in masks]
        doc = conjecture_holds(sets).to_json()
        assert list(doc["detail"]) == ["gamma_tuple", "sizes", "additive_side"]
        assert json.dumps(doc) == json.dumps(_oracle_conjecture(a, sets)), masks


def test_hs_dominates_older_group_bound():
    # conditioned on the hypothesis, the new right side is at least
    # |X| + min(v(Y), |Y|), the older group-form bound
    for n in range(2, 8):
        a = make_ambient({"kind": "zmod", "n": n})
        sets = masks(a)
        for X in sets[1:]:
            for Y in sets:
                r = check_cor_hs(X, Y)
                if r.status != "checked":
                    continue
                old = len(X) + (min(int(min_order(Y)), len(Y)) if Y.elements else 0)
                assert r.rhs >= old
                assert r.lhs >= old


def test_gamma_with_identity_dominates_min_order_in_groups():
    rng = random.Random(76)
    for n in (4, 5, 6, 8, 9):
        a = make_ambient({"kind": "zmod", "n": n})
        for _ in range(150):
            ys = {x for x in range(n) if rng.random() < 0.5}
            if not ys:
                continue
            Y = FinSet(a, ys)
            with_id = FinSet(a, ys | {0})
            assert gamma_set(with_id).value >= min_order(Y)


# -- descent -------------------------------------------------------------------


def test_descent_fixture_z5():
    t = descent(FinSet(Z5, [0]), FinSet(Z5, [0, 1]))
    assert t.outcome == "bound_certified"
    assert len(t.steps) == 1
    step = t.steps[0]
    assert step.z == 2
    assert step.pair.y_keep.elements == (0,)
    assert step.ledger_ok
    # branch (i) confirmed independently
    assert check_theorem_main(FinSet(Z5, [0]), FinSet(Z5, [0, 1])).branch_i


def test_descent_fixture_z4_structure():
    t = descent(FinSet(Z4, [0, 2]), FinSet(Z4, [0, 2]))
    assert t.outcome == "structure_case"
    assert not t.steps
    assert t.certificate["structure_witness"] == 0


def test_descent_bottoms_out_at_singleton():
    t = descent(FinSet(Z5, [0]), FinSet(Z5, [0, 1]))
    assert t.certificate["final_y_size"] == 1
    assert t.certificate["chained_lhs"] >= t.certificate["chained_rhs"]


def test_descent_preconditions():
    with pytest.raises(PreconditionViolated):
        descent(FinSet(Z5, []), FinSet(Z5, [0, 1]))
    with pytest.raises(PreconditionViolated):
        descent(FinSet(Z5, [0]), FinSet(Z5, [1]))
    with pytest.raises(PreconditionViolated):
        descent(FinSet(NAT, [(1,)]), FinSet(NAT, [(1,), (2,)]))  # no unit in Y


def test_descent_invariants_randomized():
    rng = random.Random(79)
    ambients = [Z5, Z6, Z7, make_ambient({"kind": "zmod", "n": 9})]
    ran = 0
    while ran < 300:
        a = ambients[rng.randrange(len(ambients))]
        xs = {x for x in a.carrier() if rng.random() < 0.5}
        ys = {x for x in a.carrier() if rng.random() < 0.5}
        if not xs or len(ys) < 2:
            continue
        X, Y = FinSet(a, xs), FinSet(a, ys)
        t = descent(X, Y)
        assert t.outcome in ("bound_certified", "structure_case")
        sizes = [s.y_size for s in t.steps] + [t.certificate["final_y_size"]]
        assert all(u > v for u, v in zip(sizes, sizes[1:]))
        for s in t.steps:
            assert s.ledger_ok and s.pair.all_hold
            d = s.pair.sides
            assert d["xy_size"] + d["y_keep_size"] >= d["xy_keep_size"] + d["y_size"]
        v = check_theorem_main(X, Y)
        if t.outcome == "bound_certified":
            assert t.certificate["chained_lhs"] >= t.certificate["chained_rhs"]
            # a completed descent always lands in the additive branch
            assert v.branch_i
        elif not t.steps:
            # structure found before any transform happened
            assert v.branch_ii
        ran += 1


PAIR_CHECKERS = [
    check_theorem_main,
    check_prop_equiv,
    check_cor_udt,
    check_cor_hs,
    check_cor_zn,
    check_weaker_bound,
]


@pytest.mark.parametrize("n, m", [(5, 7), (7, 5), (5, 3), (3, 5)])
def test_sets_from_different_ambients_are_rejected(n, m):
    # the top residues, so a mask kernel given the other modulus misbehaves
    X = FinSet(make_ambient({"kind": "zmod", "n": n}), [0, n - 1])
    Y = FinSet(make_ambient({"kind": "zmod", "n": m}), [0, m - 1])
    with pytest.raises(AmbientMismatch):
        conjecture_holds([X, Y])
    for check in PAIR_CHECKERS:
        with pytest.raises(AmbientMismatch):
            check(X, Y)
