import random

import pytest

import oracles
from cdlab import (
    FinSet,
    INF,
    difference,
    fixtures,
    gamma,
    gamma_set,
    gamma_tuple,
    invariant_transform,
    make_ambient,
    min_order,
    normalize_pair,
    ord_elem,
    search,
    sumset,
    sumset_size,
)
from cdlab.errors import AmbientMismatch, EmptySet, NotAUnit, NoWitness, PreconditionViolated

Z5 = make_ambient({"kind": "zmod", "n": 5})
Z6 = make_ambient({"kind": "zmod", "n": 6})
NAT = make_ambient({"kind": "nat_lattice", "dim": 1})
FM = make_ambient({"kind": "free_monoid", "alphabet": ["a", "b"]})
Z2xZ4 = make_ambient(
    {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}
)


def test_gamma_small_sets():
    assert gamma_set(FinSet(Z5, [])).value == 0
    assert gamma_set(FinSet(Z5, [3])).value == 1
    assert gamma_set(FinSet(FM, ["ab"])).value == 1


def test_gamma_examples():
    g = gamma_set(FinSet(Z6, [0, 2]))
    assert g.value == 3 and g.witness == 0
    assert gamma_set(FinSet(NAT, [(0,), (3,)])).value == INF
    assert gamma_set(FinSet(FM, ["a", "b"])).value == 0  # no units at all
    assert gamma_set(FinSet(Z5, [0, 1])).value == 5


def test_gamma_witness_is_smallest_maximizer():
    # both shifts achieve the sup in {0, 2} mod 6; the witness must be 0
    assert gamma_set(FinSet(Z6, [0, 2])).witness == 0
    g = gamma_set(FinSet(Z6, [1, 4]))
    # ord(3) = 2 from either unit, smallest witness reported
    assert g.value == 2 and g.witness == 1


def test_gamma_tuple_examples():
    assert gamma_tuple([FinSet(Z5, []), FinSet(Z5, [0, 1])]) == 0
    assert gamma_tuple([FinSet(Z5, [0, 1]), FinSet(Z5, [0, 2])]) == 5
    assert gamma_tuple([FinSet(Z5, [2]), FinSet(Z5, [3])]) == 1
    with pytest.raises(AmbientMismatch):
        gamma_tuple([FinSet(Z5, [0]), FinSet(Z6, [0])])
    # a mismatch wins over the 0 of an empty set, wherever the empty set is
    with pytest.raises(AmbientMismatch):
        gamma_tuple([FinSet(Z5, []), FinSet(Z6, [0])])
    with pytest.raises(AmbientMismatch):
        gamma_tuple([FinSet(Z5, [0]), FinSet(Z5, []), FinSet(Z6, [])])


def test_gamma_matches_brute_force():
    rng = random.Random(41)
    for a in (Z5, Z6, Z2xZ4):
        for _ in range(300):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            assert gamma_set(FinSet(a, xs)).value == oracles.brute_gamma(a, xs)


def test_gamma_group_form_drops_unit_restriction():
    # in a group the sup may range over all of X, not only its units
    rng = random.Random(43)
    for a in (Z6, Z2xZ4):
        for _ in range(200):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            if len(xs) < 2:
                continue
            over_all = max(
                min(
                    oracles.formula_ord(a, a.add(x, a.invert(x0)))
                    for x in xs
                    if x != x0
                )
                for x0 in xs
            )
            assert gamma_set(FinSet(a, xs)).value == over_all


def test_min_order_examples():
    assert min_order(FinSet(Z6, [2, 3])) == 2
    assert min_order(FinSet(Z6, [0, 4])) == 1
    assert min_order(FinSet(Z5, [1])) == 5
    with pytest.raises(EmptySet):
        min_order(FinSet(Z6, []))


def test_invariant_transform_examples():
    X, Y = FinSet(Z6, [0]), FinSet(Z6, [1, 3])
    t = invariant_transform(X, Y, 1)
    assert t.x0.elements == (1,)
    assert t.y0.elements == (0, 2)
    assert sumset_size(t.x0, t.y0) == sumset_size(X, Y)
    assert gamma_set(Y).value == gamma_set(t.y0).value == 3

    X, Y = FinSet(Z5, [0, 1]), FinSet(Z5, [2, 3])
    t = invariant_transform(X, Y, 2)
    assert sumset_size(t.x0, t.y0) == sumset_size(X, Y) == 3

    X, Y = FinSet(Z6, [2, 4]), FinSet(Z6, [0, 5])
    t = invariant_transform(X, Y, 0)  # identity shift changes nothing
    assert t.x0 == X and t.y0 == Y


def test_invariant_transform_rejects_non_units():
    with pytest.raises(NotAUnit):
        invariant_transform(FinSet(Z6, [0]), FinSet(Z6, [1, 3]), 2)  # 2 not in Y
    with pytest.raises(NotAUnit):
        invariant_transform(FinSet(NAT, [(0,)]), FinSet(NAT, [(0,), (1,)]), (1,))
    with pytest.raises(PreconditionViolated):
        from cdlab import fixtures

        band = fixtures.left_zero_band(2)
        invariant_transform(FinSet(band, [0]), FinSet(band, [0, 1]), 0)


def test_transform_identities_hold_randomly():
    rng = random.Random(45)
    for a in (Z6, Z2xZ4):
        units = [u for u in a.carrier()]
        for _ in range(200):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            ys = {x for x in a.carrier() if rng.random() < 0.5}
            if not ys:
                continue
            y0 = rng.choice(sorted(ys, key=a.sort_key))
            X, Y = FinSet(a, xs), FinSet(a, ys)
            t = invariant_transform(X, Y, y0)
            assert sumset_size(X, Y) == sumset_size(t.x0, t.y0)
            assert len(X) == len(t.x0) and len(Y) == len(t.y0)
            assert gamma_set(X).value == gamma_set(t.x0).value
            assert gamma_set(Y).value == gamma_set(t.y0).value
        assert units  # groups only here


def test_normalize_pair_examples():
    t = normalize_pair(FinSet(Z5, [0]), FinSet(Z5, [1, 2]), kappa=5)
    assert t.shift in (1, 2)
    assert 0 in t.y0.elements
    assert all(ord_elem(Z5, y) == 5 for y in t.y0.elements if y != 0)

    t = normalize_pair(FinSet(Z6, [0]), FinSet(Z6, [1, 3]), kappa=0)
    assert t.shift == 1  # smallest qualifying unit under a vacuous threshold

    t = normalize_pair(FinSet(Z6, [1]), FinSet(Z6, [0, 2, 3]), kappa=2)
    assert t.shift == 0  # inf of ord(2), ord(3) is 2, reached at the identity


def test_normalize_pair_no_witness():
    Y = FinSet(Z6, [0, 3])  # gamma(Y) = 2
    assert gamma_set(Y).value == 2
    with pytest.raises(NoWitness):
        normalize_pair(FinSet(Z6, [0]), Y, kappa=3)
    with pytest.raises(PreconditionViolated):
        normalize_pair(FinSet(Z6, [0]), FinSet(Z6, [1]), kappa=1)


def test_normalize_pair_needs_a_cancellative_monoid_with_a_unit_in_y():
    band = fixtures.left_zero_band()
    with pytest.raises(PreconditionViolated, match="cancellative monoid"):
        normalize_pair(FinSet(band, [0]), FinSet(band, [0, 1]), kappa=1)
    with pytest.raises(PreconditionViolated, match="a unit in Y"):
        normalize_pair(FinSet(NAT, [(0,)]), FinSet(NAT, [(1,), (2,)]), kappa=1)


def test_normalize_pair_shifts_by_the_gamma_witness():
    # at kappa = gamma(Y) the chosen unit is the witness of the sup; one
    # above it no unit qualifies
    from cdlab import fixtures, is_commutative_generated

    ambients = [make_ambient({"kind": "zmod", "n": n}) for n in range(1, 9)]
    checked = 0
    for a in ambients + [Z2xZ4, fixtures.s3()]:
        for mask in range(1 << a.carrier_size):
            Y = FinSet.from_mask(a, mask)
            if len(Y) < 2 or not is_commutative_generated(Y):
                continue
            g = gamma_set(Y)
            assert normalize_pair(Y, Y, g.value).shift == g.witness
            if g.value != INF:
                with pytest.raises(NoWitness):
                    normalize_pair(Y, Y, g.value + 1)
            checked += 1
    assert checked > 700


def test_normalize_preserves_commutativity_and_structure_failure():
    from cdlab import fixtures, is_commutative_generated, sumset
    from cdlab import units_of

    rng = random.Random(46)
    s3 = fixtures.s3()
    done = 0
    while done < 200:
        a = (Z6, Z2xZ4, s3)[rng.randrange(3)]
        carrier = a.carrier()
        xs = {e for e in carrier if rng.random() < 0.5}
        ys = {e for e in carrier if rng.random() < 0.4}
        if not xs or len(ys) < 2:
            continue
        Y = FinSet(a, ys)
        if not is_commutative_generated(Y):
            continue
        X = FinSet(a, xs)
        gam = gamma_set(Y).value
        kappa = rng.randrange(0, int(min(gam, 12)) + 1)
        t = normalize_pair(X, Y, kappa)
        assert is_commutative_generated(t.y0)
        xy = sumset(X, Y)
        x2y = sumset(xy, Y)
        failure = all(
            sumset(xy, FinSet(a, [yb])) != x2y for yb in units_of(Y).elements
        )
        if failure:
            xy0 = sumset(t.x0, t.y0)
            x2y0 = sumset(xy0, t.y0)
            assert all(
                sumset(xy0, FinSet(a, [yb])) != x2y0
                for yb in units_of(t.y0).elements
            )
        done += 1


def test_unit_shift_invariance_lemma():
    # gamma(X) = gamma(X - z) = gamma(-z + X) for every unit z
    rng = random.Random(47)
    suites = []
    for _ in range(340):
        suites.append((Z6, {x for x in Z6.carrier() if rng.random() < 0.5}))
        suites.append((Z2xZ4, {x for x in Z2xZ4.carrier() if rng.random() < 0.5}))
        suites.append(
            (NAT, {(rng.randrange(10),) for _ in range(rng.randrange(1, 6))})
        )
    for a, xs in suites:
        X = FinSet(a, xs)
        units = [u for u in a.carrier()] if a is not NAT else [(0,)]
        z = units[rng.randrange(len(units))]
        zset = FinSet(a, [z])
        minus = difference("right", X, zset)
        neg = a.invert(z)
        left = FinSet(a, (a.add(neg, x) for x in X.elements))
        base = gamma_set(X).value
        assert gamma_set(minus).value == base
        assert gamma_set(left).value == base


def test_tuple_constant_dominates_sumset_constant():
    # exhaustive over small cyclic groups: gamma(X, Y) >= gamma(X + Y)
    for n in range(2, 9):
        a = make_ambient({"kind": "zmod", "n": n})
        full = 1 << n
        for mx in range(1, full):
            X = FinSet.from_mask(a, mx)
            for my in range(1, full):
                Y = FinSet.from_mask(a, my)
                assert gamma_tuple([X, Y]) >= gamma_set(sumset(X, Y)).value


# -- the order table against orbit walks -----------------------------------

ABELIAN = list(search.family_ambients({"kind": "abelian_up_to_order", "max_order": 10}))
# the multiplicative monoid of Z4: units 1 and 3, non-units 0 and 2
MUL_Z4 = make_ambient({"kind": "cayley", "table": [[i * j % 4 for j in range(4)] for i in range(4)]})
# {1, 2, 3, 4} under addition truncated at 4: no identity, so no units
TRUNCATED = make_ambient(
    {"kind": "cayley", "table": [[min(i + j + 1, 3) for j in range(4)] for i in range(4)]}
)
TABLE_AMBIENTS = ABELIAN + [make_ambient({"kind": "zmod", "n": n}) for n in (11, 12, 13)] + [
    fixtures.s3(), fixtures.d4(), fixtures.q8(), fixtures.left_zero_band(3), MUL_Z4, TRUNCATED
]


def _orbit_orders(a):
    return {x: ord_elem(a, x) for x in a.carrier()}


def _orbit_inf(a, orders, xs, x0):
    neg = a.invert(x0)
    return min((orders[a.add(x, neg)] for x in xs if x != x0), default=INF)


def _orbit_gamma(a, orders, xs):
    """(value, witness) of the constant, from ord_elem orbit walks alone."""
    if len(xs) <= 1:
        return len(xs), None
    best, wit = 0, None
    for x0 in xs:
        if a.is_unit(x0):
            inner = _orbit_inf(a, orders, xs, x0)
            if inner > best:
                best, wit = inner, x0
    return best, wit


def test_abelian_family_has_fourteen_groups():
    assert len(ABELIAN) == 14


@pytest.mark.parametrize("a", TABLE_AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_gamma_from_the_order_table_matches_orbit_walks(a):
    gamma._gamma.cache_clear()
    orders = _orbit_orders(a)
    for mask in range(1 << a.carrier_size):
        X = FinSet.from_mask(a, mask)
        g = gamma_set(X)
        assert (g.value, g.witness) == _orbit_gamma(a, orders, X.elements)


def test_no_order_table_without_units():
    gamma._gamma.cache_clear()
    gamma._order_levels.cache_clear()
    for a in (fixtures.left_zero_band(3), TRUNCATED):
        for mask in range(1 << a.carrier_size):
            X = FinSet.from_mask(a, mask)
            assert gamma_set(X).value == (len(X) if len(X) <= 1 else 0)
    assert gamma._order_levels.cache_info().misses == 0


@pytest.mark.parametrize("a", ABELIAN, ids=lambda a: repr(a.describe()))
def test_order_table_entries_match_the_formula(a):
    levels, _ = gamma._order_levels(a)
    carrier = a.carrier()
    assert levels[0] == (1, 1 << carrier.index(a.identity))
    assert [o for o, _ in levels] == sorted({o for o, _ in levels})
    covered = 0
    for o, level in levels:
        assert level and not level & covered
        covered |= level
        for i, x in enumerate(carrier):
            if level >> i & 1:
                assert oracles.formula_ord(a, x) == o
    assert covered == (1 << len(carrier)) - 1


@pytest.mark.parametrize(
    "a", ABELIAN + [fixtures.s3(), fixtures.d4(), fixtures.q8()], ids=lambda a: repr(a.describe())
)
def test_order_rows_hold_the_elements_at_each_difference_order(a):
    # brute force: rows[i] lists, in ascending order o, the x != x_i with
    # ord(x - x_i) = o, differences taken on the right as in the constant
    _, rows = gamma._order_levels(a)
    orders = _orbit_orders(a)
    carrier = a.carrier()
    assert len(rows) == len(carrier)
    for i, x0 in enumerate(carrier):
        neg = a.invert(x0)
        want = {}
        for j, x in enumerate(carrier):
            if j != i:
                o = orders[a.add(x, neg)]
                want[o] = want.get(o, 0) | 1 << j
        assert list(rows[i]) == sorted(want.items()), x0


def test_normalize_pair_matches_a_kappa_brute_force():
    rng = random.Random(48)
    checked = 0
    for a in ABELIAN + [fixtures.s3(), fixtures.d4(), fixtures.q8()]:
        orders = _orbit_orders(a)
        for _ in range(40):
            X = FinSet.from_mask(a, rng.randrange(1, 1 << a.carrier_size))
            Y = FinSet.from_mask(a, rng.randrange(1, 1 << a.carrier_size))
            if len(Y) < 2:
                continue
            reach = {y0: _orbit_inf(a, orders, Y.elements, y0) for y0 in Y.elements}
            for kappa in range(0, max(reach.values()) + 2):
                want = next((y0 for y0 in Y.elements if reach[y0] >= kappa), None)
                if want is None:
                    with pytest.raises(NoWitness):
                        normalize_pair(X, Y, kappa)
                else:
                    assert normalize_pair(X, Y, kappa).shift == want
                checked += 1
    assert checked > 1000


def test_large_product_reads_each_difference_order_once(monkeypatch):
    # Z2^10 has 1,024 elements, above the table cap: sets are frozensets
    # and orders come from the per-element memo
    a = make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": 2}] * 10})
    X = FinSet(a, random.Random(49).sample(a.carrier(), 64))
    assert type(X.raw) is frozenset
    calls = []
    walk = gamma.ord_elem

    def counted(a, x):
        calls.append(x)
        return walk(a, x)

    monkeypatch.setattr(gamma, "ord_elem", counted)
    gamma._gamma.cache_clear()
    gamma._elem_ord.cache_clear()
    g = gamma_set(X)
    diffs = {a.add(x, a.invert(x0)) for x0 in X.elements for x in X.elements if x != x0}
    assert len(calls) <= len(diffs)
    monkeypatch.setattr(gamma, "ord_elem", walk)
    orders = {d: ord_elem(a, d) for d in diffs}
    assert (g.value, g.witness) == _orbit_gamma(a, orders, X.elements)


def test_large_zmod_reads_orders_through_the_memo():
    # Z1000 sets are masks, but above the table cap: no table is built
    a = make_ambient({"kind": "zmod", "n": 1000})
    rng = random.Random(50)
    gamma._gamma.cache_clear()
    gamma._order_levels.cache_clear()
    orders = _orbit_orders(a)
    for k in (2, 3, 8, 20):
        X = FinSet(a, rng.sample(range(1000), k))
        g = gamma_set(X)
        assert (g.value, g.witness) == _orbit_gamma(a, orders, X.elements)
    assert gamma._order_levels.cache_info().misses == 0
