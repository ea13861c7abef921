import math
import random

import pytest

import oracles
from cdlab import (
    FinSet,
    INF,
    center,
    difference,
    enumerate_abelian_groups,
    generated,
    generated_sym,
    is_commutative_generated,
    iterated_sumset,
    make_ambient,
    ord_elem,
    ord_set,
    sumset,
    sumset_size,
    union,
    units_of,
)
from cdlab.ambient import IntLattice
from cdlab.errors import AmbientMismatch, ElementAmbientMismatch, InvariantBroken
from cdlab import fixtures, setops, theorems
from cdlab.setops import intersection, is_subset

Z4 = make_ambient({"kind": "zmod", "n": 4})
Z5 = make_ambient({"kind": "zmod", "n": 5})
Z6 = make_ambient({"kind": "zmod", "n": 6})
NAT = make_ambient({"kind": "nat_lattice", "dim": 1})
FM = make_ambient({"kind": "free_monoid", "alphabet": ["a", "b"]})
S3 = fixtures.s3()


def test_finset_canonical():
    s = FinSet(Z6, [4, 1, 4, 0])
    assert s.elements == (0, 1, 4)
    assert s == FinSet(Z6, (1, 0, 4))
    assert len(s) == 3 and 4 in s and 2 not in s
    assert s.to_json() == [0, 1, 4]
    assert FinSet.from_json(Z6, [4, 1, 0]) == s
    words = FinSet(FM, ["ba", "a", "", "ab"])
    assert words.elements == ("", "a", "ab", "ba")  # by length then text


def test_finset_mask_round_trip():
    s = FinSet(Z6, [0, 2, 5])
    assert s.mask == 0b100101
    assert FinSet.from_mask(Z6, s.mask) == s


Z3 = make_ambient({"kind": "zmod", "n": 3})
Z2Z2 = make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": 2}] * 2})
Z2_10 = make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": 2}] * 10})
MASK_AMBIENTS = [Z3, Z2Z2, S3, Z2_10]


@pytest.mark.parametrize("a", MASK_AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_from_mask_decodes_every_carrier_mask(a):
    carrier = a.carrier()
    n = len(carrier)
    for mask in [*range(min(1 << n, 64)), (1 << n) - 1, 1 << (n - 1)]:
        X = FinSet.from_mask(a, mask)
        assert X == FinSet(a, [carrier[i] for i in range(n) if mask >> i & 1])


@pytest.mark.parametrize("a", MASK_AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_from_mask_rejects_what_is_not_a_carrier_mask(a):
    n = a.carrier_size
    for bad in (-1, -(1 << n), 1 << n, 1 << (n + 5), True, False, 1.0, "1", None):
        with pytest.raises(ElementAmbientMismatch):
            FinSet.from_mask(a, bad)


def test_sumset_examples():
    assert sumset(FinSet(Z5, [0, 1]), FinSet(Z5, [0, 1])).elements == (0, 1, 2)
    assert sumset(FinSet(Z5, [0, 1]), FinSet(Z5, [])).elements == ()
    assert sumset(FinSet(FM, [""]), FinSet(FM, ["a", "bb"])).elements == ("a", "bb")
    with pytest.raises(AmbientMismatch):
        sumset(FinSet(Z5, [0]), FinSet(Z6, [0]))


def test_iterated_sumset_examples():
    assert iterated_sumset(2, FinSet(Z4, [0, 2])).elements == (0, 2)
    x = FinSet(Z5, [1, 3])
    assert iterated_sumset(1, x) == x
    assert iterated_sumset(2, FinSet(FM, ["a"])).elements == ("aa",)
    with pytest.raises(ValueError):
        iterated_sumset(0, x)


def test_difference_examples():
    assert difference("right", FinSet(Z6, [1]), FinSet(Z6, [2])).elements == (5,)
    assert difference("right", FinSet(NAT, [(3,)]), FinSet(NAT, [(5,)])).elements == ()
    # group case: X - {y} is the translate by the inverse
    X = FinSet(Z6, [1, 3, 4])
    y = 5
    expect = tuple(sorted((x + Z6.invert(y)) % 6 for x in X))
    assert difference("right", X, FinSet(Z6, [y])).elements == expect


def test_difference_against_definition_scan():
    rng = random.Random(31)
    # a left-zero band times Z300: 600 elements, so its sets are frozensets,
    # and left division in it has many solutions
    band_z300 = make_ambient(
        {
            "kind": "product",
            "factors": [{"kind": "cayley", "table": [[0, 0], [1, 1]]}, {"kind": "zmod", "n": 300}],
        }
    )
    s3_z2 = make_ambient({"kind": "product", "factors": [S3.describe(), {"kind": "zmod", "n": 2}]})
    for a, draws in (
        (Z6, 150),
        (S3, 150),
        (fixtures.d4(), 150),
        (fixtures.q8(), 150),
        (fixtures.left_zero_band(3), 150),
        (s3_z2, 150),
        (band_z300, 3),
    ):
        universe = a.carrier()
        for _ in range(draws):
            xs = {u for u in universe if rng.random() < 0.4}
            ys = {u for u in universe if rng.random() < 0.4}
            for side in ("right", "left"):
                got = set(difference(side, FinSet(a, xs), FinSet(a, ys)).elements)
                want = oracles.naive_difference(a, side, xs, ys, universe)
                assert got == want


def test_generated_examples():
    res = generated(FinSet(Z6, [2]))
    assert res.closure.elements == (0, 2, 4) and res.complete
    res = generated(FinSet(NAT, [(1,)]), budget=10)
    assert not res.complete
    assert res.closure.elements == tuple((k,) for k in range(1, 11))
    assert res.budget_used == 10
    res = generated_sym(FinSet(Z5, [1]))
    assert res.closure.elements == (0, 1, 2, 3, 4) and res.complete
    empty = generated(FinSet(Z5, []))
    assert empty.complete and empty.closure.elements == ()


def test_generated_matches_power_union():
    rng = random.Random(123)
    for a in (Z6, S3):
        for _ in range(60):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            if not xs:
                continue
            got = set(generated(FinSet(a, xs)).closure.elements)
            want = oracles.closure_by_powers(a, xs, a.carrier_size + 1)
            assert got == want


def test_ord_examples():
    assert ord_elem(Z6, 2) == 3
    assert ord_elem(Z6, 0) == 1
    assert ord_elem(NAT, (1,)) == INF
    band = fixtures.left_zero_band(3)
    assert [ord_elem(band, x) for x in band.carrier()] == [1, 1, 1]
    mul_z4 = make_ambient(
        {"kind": "cayley", "table": [[i * j % 4 for j in range(4)] for i in range(4)]}
    )
    assert [ord_elem(mul_z4, x) for x in mul_z4.carrier()] == [1, 1, 2, 2]

    class Unruled(IntLattice):  # no infinitude rule: its bound of 1 is wrong
        def ord_is_infinite(self, x):
            return False

    with pytest.raises(InvariantBroken):
        ord_elem(Unruled(1), (1,))
    # the closure behind prop13 and hs follows the same rule; Unruled(1) is
    # interned under its own class, so the memo's entry for int_lattice of
    # dimension 1, with the same description, does not answer for it
    lat = Unruled(1)
    assert theorems._closure(IntLattice(1), frozenset({(1,)})) is None
    with pytest.raises(InvariantBroken):
        theorems._closure(lat, frozenset({(1,)}))
    with pytest.raises(InvariantBroken):
        theorems.check_cor_hs(FinSet(lat, [(0,)]), FinSet(lat, [(1,)]))
    assert ord_set(FinSet(Z6, [2])) == 3
    assert ord_set(FinSet(NAT, [(0,), (2,)])) == INF
    assert ord_set(FinSet(Z5, [])) == 0
    assert ord_set(FinSet(FM, [""])) == 1
    assert ord_set(FinSet(FM, ["ab"])) == INF
    # an infinite factor orbit makes the product orbit infinite; a finite
    # one is bounded factor by factor
    mixed = make_ambient(
        {"kind": "product", "factors": [{"kind": "int_lattice", "dim": 1}, {"kind": "zmod", "n": 3}]}
    )
    assert ord_elem(mixed, ((1,), 0)) == INF == oracles.formula_ord(mixed, ((1,), 0))
    assert ord_elem(mixed, ((0,), 1)) == 3 == oracles.formula_ord(mixed, ((0,), 1))
    assert ord_set(FinSet(mixed, [])) == 0
    assert mixed.gen_size_bound([]) == 0


def _cayley(table):
    return make_ambient({"kind": "cayley", "table": table})


UNIT_INVERSE_AMBIENTS = [make_ambient({"kind": "zmod", "n": n}) for n in range(1, 9)] + [
    S3,
    fixtures.d4(),
    fixtures.q8(),
    fixtures.left_zero_band(3),
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}
    ),
    _cayley([[i * j % 4 for j in range(4)] for i in range(4)]),
    _cayley([[i * j % 6 for j in range(6)] for i in range(6)]),
    _cayley([[i * j % 7 for j in range(7)] for i in range(7)]),  # units of order 3, 6
    _cayley([[i | j for j in range(4)] for i in range(4)]),  # a semilattice
]


@pytest.mark.parametrize(
    "a", UNIT_INVERSE_AMBIENTS, ids=lambda a: f"{a.kind}{a.carrier_size}"
)
def test_finite_closure_holds_the_inverses_of_its_units(a):
    # the one closure walk of prop13 and hs rests on <<X>> = <X> wherever
    # the closure rule walks: a unit u of finite order k has -u = (k - 1)u
    for m in range(1 << a.carrier_size):
        X = FinSet.from_mask(a, m)
        plain = setops._closure_walk(X, generated)
        assert plain.closure == setops._closure_walk(X, generated_sym).closure, m


def test_bounded_infinite_closures_hold_the_inverses_of_their_units():
    lat = make_ambient({"kind": "int_lattice", "dim": 1})
    mixed = make_ambient(
        {"kind": "product", "factors": [{"kind": "int_lattice", "dim": 1}, {"kind": "zmod", "n": 3}]}
    )
    bounded = [FinSet(lat, [(0,)]), FinSet(FM, [""])]
    for m in range(1, 8):
        bounded.append(FinSet(mixed, [((0,), k) for k in range(3) if m >> k & 1]))
    for X in bounded:
        plain = setops._closure_walk(X, generated)
        assert plain is not None
        assert plain.closure == setops._closure_walk(X, generated_sym).closure, X
    for X in (FinSet(lat, [(0,), (1,)]), FinSet(mixed, [((0,), 1), ((-1,), 0)])):
        assert setops._closure_walk(X, generated) is None
        assert setops._closure_walk(X, generated_sym) is None


def test_ord_matches_formula():
    rng = random.Random(7)
    p = make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 6}, {"kind": "zmod", "n": 4}]}
    )
    for a in (Z4, Z5, Z6, p):
        for _ in range(200):
            x = a.carrier()[rng.randrange(a.carrier_size)]
            assert ord_elem(a, x) == oracles.formula_ord(a, x)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: difference("up", FinSet(Z6, [0]), FinSet(Z6, [1])), ValueError),
        (lambda: center(FinSet(NAT, [(1,)])), ValueError),
        (lambda: enumerate_abelian_groups(0), ValueError),
        (lambda: IntLattice(1).carrier(), ValueError),
        (lambda: FinSet(_product(2, 3), [(0,)]), ElementAmbientMismatch),
    ],
    ids=[
        "difference-side",
        "center-without-candidates",
        "no-groups",
        "infinite-carrier",
        "short-product-tuple",
    ],
)
def test_rejected_library_calls_raise(call, error):
    with pytest.raises(error):
        call()


def test_center_examples():
    assert center(FinSet(S3, [1])).elements == (0, 1)
    assert center(FinSet(S3, range(6))).elements == (0,)
    cands = FinSet(Z6, [1, 3])
    assert center(FinSet(Z6, [2]), cands) == cands  # commutative ambient


def test_units_of_examples():
    X = FinSet(Z6, [1, 5])
    assert units_of(X) is X
    assert units_of(FinSet(NAT, [(0,), (3,)])).elements == ((0,),)
    assert units_of(FinSet(FM, ["a", "b"])).elements == ()


def test_is_commutative_generated():
    assert is_commutative_generated(FinSet(S3, [0, 1]))
    assert not is_commutative_generated(FinSet(S3, [1, 2]))
    assert is_commutative_generated(FinSet(S3, [4]))
    assert is_commutative_generated(FinSet(S3, []))
    assert is_commutative_generated(FinSet(Z6, [1, 2, 3]))


def test_commutative_generated_matches_closure_check():
    # pairwise commuting generators iff the whole closure commutes
    rng = random.Random(2024)
    for a in (S3, fixtures.d4(), fixtures.q8()):
        for _ in range(120):
            xs = {x for x in a.carrier() if rng.random() < 0.4}
            pairwise = is_commutative_generated(FinSet(a, xs))
            clo = generated(FinSet(a, xs)).closure.elements
            direct = all(a.add(u, v) == a.add(v, u) for u in clo for v in clo)
            assert pairwise == direct


def test_cancellable_translation_preserves_size():
    # |z + X| = |X + z| = |X| for every z in a cancellative finite ambient
    rng = random.Random(11)
    for a in (Z6, S3):
        for _ in range(100):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            z = a.carrier()[rng.randrange(a.carrier_size)]
            X = FinSet(a, xs)
            assert len(sumset(X, FinSet(a, [z]))) == len(xs)
            assert len(sumset(FinSet(a, [z]), X)) == len(xs)


def test_sumset_lower_bound_by_max():
    rng = random.Random(12)
    for a in (Z6, S3, NAT):
        for _ in range(100):
            if a is NAT:
                xs = {(rng.randrange(20),) for _ in range(rng.randrange(1, 6))}
                ys = {(rng.randrange(20),) for _ in range(rng.randrange(1, 6))}
            else:
                xs = {x for x in a.carrier() if rng.random() < 0.5} or {a.identity}
                ys = {x for x in a.carrier() if rng.random() < 0.5} or {a.identity}
            assert sumset_size(FinSet(a, xs), FinSet(a, ys)) >= max(len(xs), len(ys))


def test_finite_order_element_yields_identity():
    # n copies of a cancellable z of order n sum to the identity
    for a, z in ((Z6, 2), (Z6, 5), (S3, 1), (S3, 4)):
        n = ord_elem(a, z)
        power = iterated_sumset(n, FinSet(a, [z]))
        assert power.elements == (a.identity,)


def test_center_inverse_and_commutative_difference():
    # units in the center of X keep their inverses in the center, and
    # X - z stays commutative-generated when X is
    rng = random.Random(13)
    a = S3
    for _ in range(200):
        xs = {x for x in a.carrier() if rng.random() < 0.4}
        X = FinSet(a, xs)
        for z in center(X).elements:
            if not a.is_unit(z):
                continue
            assert a.invert(z) in center(X).elements
            if is_commutative_generated(X):
                shifted = difference("right", X, FinSet(a, [z]))
                assert is_commutative_generated(shifted)


def test_units_distribute_over_sumsets():
    # in a cancellative monoid the units of a sumset are exactly the
    # sums of units, and inversion reverses the order
    rng = random.Random(14)
    for a in (Z6, S3):
        for _ in range(150):
            xs = {x for x in a.carrier() if rng.random() < 0.5}
            ys = {x for x in a.carrier() if rng.random() < 0.5}
            X, Y = FinSet(a, xs), FinSet(a, ys)
            left = sumset(units_of(X), units_of(Y))
            right = units_of(sumset(X, Y))
            assert left == right
    nat = NAT
    for _ in range(150):
        xs = {(rng.randrange(8),) for _ in range(rng.randrange(1, 5))}
        ys = {(rng.randrange(8),) for _ in range(rng.randrange(1, 5))}
        X, Y = FinSet(nat, xs), FinSet(nat, ys)
        assert sumset(units_of(X), units_of(Y)) == units_of(sumset(X, Y))


def test_inverse_of_sum_reverses():
    rng = random.Random(15)
    a = S3
    for _ in range(200):
        x1 = rng.randrange(6)
        x2 = rng.randrange(6)
        assert a.invert(a.add(x1, x2)) == a.add(a.invert(x2), a.invert(x1))


def test_sumset_distributes_over_union():
    rng = random.Random(16)
    for a in (Z6, S3):
        for _ in range(100):
            xs = {x for x in a.carrier() if rng.random() < 0.4}
            xs2 = {x for x in a.carrier() if rng.random() < 0.4}
            ys = {x for x in a.carrier() if rng.random() < 0.4}
            lhs = sumset(FinSet(a, xs | xs2), FinSet(a, ys))
            rhs = set(sumset(FinSet(a, xs), FinSet(a, ys)).elements) | set(
                sumset(FinSet(a, xs2), FinSet(a, ys)).elements
            )
            assert set(lhs.elements) == rhs


def test_bitmask_sumset_equals_naive():
    rng = random.Random(17)
    # exhaustive on small cyclic groups
    for n in range(1, 7):
        a = make_ambient({"kind": "zmod", "n": n})
        full = 1 << n
        for mx in range(full):
            X = FinSet.from_mask(a, mx)
            for my in range(full):
                Y = FinSet.from_mask(a, my)
                got = set(sumset(X, Y).elements)
                assert got == oracles.naive_sumset(a, X.elements, Y.elements)
    # sampled on the rest up to 16
    for n in range(7, 17):
        a = make_ambient({"kind": "zmod", "n": n})
        for _ in range(300):
            xs = {x for x in range(n) if rng.random() < 0.5}
            ys = {x for x in range(n) if rng.random() < 0.5}
            got = set(sumset(FinSet(a, xs), FinSet(a, ys)).elements)
            assert got == oracles.naive_sumset(a, xs, ys)


def test_table_ambient_sumset_equals_naive():
    rng = random.Random(18)
    p = make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 3}, {"kind": "zmod", "n": 4}]}
    )
    for a in (S3, fixtures.q8(), p):
        for _ in range(200):
            xs = {x for x in a.carrier() if rng.random() < 0.4}
            ys = {x for x in a.carrier() if rng.random() < 0.4}
            got = set(sumset(FinSet(a, xs), FinSet(a, ys)).elements)
            assert got == oracles.naive_sumset(a, xs, ys)
            assert sumset_size(FinSet(a, xs), FinSet(a, ys)) == len(got)


COLUMN_AMBIENTS = [make_ambient({"kind": "zmod", "n": n}) for n in range(1, 8)] + [
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}
    ),
    S3,
]


@pytest.mark.parametrize("a", COLUMN_AMBIENTS, ids=lambda a: repr(a.describe()))
def test_raw_column_matches_sumset(a):
    rng = random.Random(19)
    carrier = a.carrier()
    masks = range(1 << a.carrier_size)
    tails = [(), (rng.choice(carrier),)]
    tails += [tuple(x for x in carrier if rng.random() < 0.5) for _ in range(3)]
    for ys in tails:
        col = setops._raw_column(a, ys)
        assert col == [setops._raw_sumset(a, m, ys) for m in masks]
        # X + (Y u {0}) = X u (X + Y), which the hs slab entry relies on
        Y = FinSet(a, ys)
        with_identity = union(Y, FinSet.singleton(a, a.identity))
        with_col = setops._raw_column(a, with_identity.elements)
        for m in masks:
            X = FinSet.from_mask(a, m)
            assert with_col[m] == union(X, sumset(X, Y)).raw == sumset(X, with_identity).raw


SET_OP_AMBIENTS = [
    Z6,
    S3,
    fixtures.left_zero_band(3),
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]}
    ),
    make_ambient({"kind": "int_lattice", "dim": 2}),
    NAT,
    FM,
]


def _random_elements(a, rng):
    if a.carrier_size is not None:
        return {x for x in a.carrier() if rng.random() < 0.4}
    if a.kind == "free_monoid":
        words = ["", "a", "b", "aa", "ab", "ba", "bb"]
        return {w for w in words if rng.random() < 0.4}
    box = range(-2, 3) if a.kind == "int_lattice" else range(4)
    return {tuple(rng.choice(box) for _ in range(a.dim)) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("force_elements", [False, True], ids=["raw", "elements"])
@pytest.mark.parametrize("a", SET_OP_AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_set_operations_match_python_sets(a, force_elements, monkeypatch):
    if force_elements:
        monkeypatch.setattr(setops, "_mask_form", lambda a: False)
    form = int if setops._mask_form(a) else frozenset
    rng = random.Random(f"setops:{a.describe()}")
    for _ in range(150):
        xs, ys = _random_elements(a, rng), _random_elements(a, rng)
        X, Y = FinSet(a, xs), FinSet(a, ys)
        assert type(X.raw) is form and type(sumset(X, Y).raw) is form
        assert union(X, Y) == FinSet(a, xs | ys)
        assert intersection(X, Y) == FinSet(a, xs & ys)
        assert is_subset(X, Y) == (xs <= ys)
        assert is_subset(intersection(X, Y), X)
        xy = oracles.naive_sumset(a, xs, ys)
        assert sumset(X, Y) == FinSet(a, xy)
        assert sumset_size(X, Y) == len(xy)


FORM_AMBIENTS = SET_OP_AMBIENTS + [
    make_ambient({"kind": "free_monoid", "alphabet": []}),
    make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": 2}] * 10}),
]


@pytest.mark.parametrize("a", FORM_AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_construction_routes_agree(a):
    """FinSet(items), from_mask, from_json, singleton and the kernel outputs
    build the same set: the same raw set, elements, equality and hash."""
    finite = a.carrier_size is not None
    form = int if setops._mask_form(a) else frozenset
    # zmod, cayley, small products and the one-word free monoid are masks;
    # Z2^10 has 1,024 elements, above TABLE_CAP
    assert (form is int) == (finite and a.carrier_size <= setops.TABLE_CAP)
    ident = a.identity if a.axioms.has_identity else None
    rng = random.Random(f"routes:{a.describe()}")
    samples = [set(), *(_random_elements(a, rng) for _ in range(40))]
    if finite:
        samples.append(set(a.carrier()))
    for xs in samples:
        X = FinSet(a, xs)
        assert type(X.raw) is form
        assert X.elements == tuple(sorted(xs, key=a.sort_key))
        assert len(X) == len(xs) and bool(X) == bool(xs)
        routes = [
            FinSet(a, list(X.elements)[::-1]),
            FinSet.from_json(a, X.to_json()),
            union(X, FinSet(a)),
            intersection(X, X),
        ]
        if finite:
            mask = sum(1 << a.index_of(x) for x in xs)
            routes.append(FinSet.from_mask(a, mask))
            if form is int:
                assert X.raw == X.mask == mask
        if form is frozenset:
            assert X.raw == frozenset(xs)
            with pytest.raises(ValueError):
                X.mask
        if ident is not None:
            routes.append(sumset(X, FinSet.singleton(a, ident)))
        if len(xs) == 1:
            routes.append(FinSet.singleton(a, X.elements[0]))
        for R in routes:
            assert type(R.raw) is form
            assert R.raw == X.raw and R.elements == X.elements
            assert R == X and hash(R) == hash(X)


def test_sets_over_different_ambients_differ():
    assert FinSet(Z5, [0, 1]) != FinSet(Z6, [0, 1])
    assert FinSet(Z5, [0, 1]).raw == FinSet(Z6, [0, 1]).raw


def _product(*ns):
    return make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": n} for n in ns]})


@pytest.mark.parametrize(
    "a",
    [make_ambient({"kind": "zmod", "n": n}) for n in (1, 2, 5, 6, 8)]
    + [
        _product(2, 4),
        _product(2, 2, 2),
        _product(3, 3),
        make_ambient({"kind": "cayley", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}),
    ],
    ids=lambda a: str(a.describe()),
)
def test_least_translate_names_the_translation_class(a):
    # brute force: the least mask of {x + g : x in X} over every g, built
    # from the elements; two masks share it exactly when one is a
    # translate of the other, and the class lists those translates
    carrier = a.carrier()
    cls, members = setops._translation_classes(a)
    assert len(cls) == len(members) == 1 << len(carrier)
    for m in range(1 << len(carrier)):
        X = FinSet.from_mask(a, m)
        masks = {FinSet(a, [a.add(x, g) for x in X]).raw for g in carrier}
        assert cls[m] == min(masks), m
        assert members[m] == sorted(masks), m
        assert all(members[t] is members[m] for t in masks), m


@pytest.mark.parametrize(
    "a",
    [make_ambient({"kind": "zmod", "n": n}) for n in (1, 2, 5, 8, 9, 12)]
    + [_product(2, 4), _product(3, 3), fixtures.s3()],
    ids=lambda a: str(a.describe()),
)
def test_unit_maps_scale_each_mask_by_a_unit(a):
    # brute force: over Z_n the maps are m -> mask of uX for the units u of
    # Z_n from gcd, the identity first; every other ambient gets the
    # identity alone
    maps = setops._unit_maps(a)
    size = 1 << a.carrier_size
    assert [maps[0](m) for m in range(size)] == list(range(size))
    if a.kind != "zmod":
        assert len(maps) == 1
        return
    units = [u for u in range(1, a.n) if math.gcd(u, a.n) == 1] or [0]
    assert len(maps) == len(units)
    for unit, u in zip(maps, units):
        for m in range(size):
            assert unit(m) == FinSet(a, [u * x % a.n for x in FinSet.from_mask(a, m)]).raw, (u, m)


def _oracle_mask(a, elems):
    idx = a.index_of
    return sum(1 << idx(z) for z in elems)


@pytest.mark.parametrize(
    "a",
    [_product(2, 2), _product(2, 4), _product(4, 2), _product(2, 2, 2), _product(3, 3)],
    ids=["Z2xZ2", "Z2xZ4", "Z4xZ2", "Z2xZ2xZ2", "Z3xZ3"],
)
def test_product_kernel_matches_the_naive_sumset_on_every_pair(a):
    # the kernel translates masks factor by factor
    assert a._steps is not None
    _assert_every_pair_matches_the_naive_sumset(a)


@pytest.mark.parametrize(
    "a",
    [fixtures.s3(), fixtures.d4(), fixtures.q8(), fixtures.left_zero_band(3)],
    ids=["S3", "D4", "Q8", "left_zero_band3"],
)
def test_element_loop_matches_the_naive_sumset_on_every_pair(a):
    # cayley masks are decoded and added pair by pair
    assert type(FinSet.from_mask(a, 1).raw) is int
    _assert_every_pair_matches_the_naive_sumset(a)


def _assert_every_pair_matches_the_naive_sumset(a):
    # X + Y is the union of x + Y over x in X, each x + Y from the naive
    # double loop
    carrier = a.carrier()
    size = 1 << len(carrier)
    for my in range(size):
        ys = FinSet.from_mask(a, my).elements
        single = [_oracle_mask(a, oracles.naive_sumset(a, [x], ys)) for x in carrier]
        want = [0] * size
        for mx in range(1, size):
            low = mx & -mx
            want[mx] = want[mx ^ low] | single[low.bit_length() - 1]
        got = [setops._raw_sumset(a, mx, ys) for mx in range(size)]
        assert got == want, ys


@pytest.mark.parametrize(
    "a",
    [
        _product(2, 6),
        _product(2, 3, 2),
        _product(*[2] * 9),
        make_ambient({"kind": "product", "factors": [fixtures.s3().describe(), {"kind": "zmod", "n": 2}]}),
    ],
    ids=["Z2xZ6", "Z2xZ3xZ2", "Z2^9", "S3xZ2"],
)
def test_product_kernel_matches_the_naive_sumset_on_seeded_pairs(a):
    # Z2^9 sits at the table cap; S3 x Z2 has a non-zmod factor and goes
    # through the element loop.  Densities from sparse to full reach both the
    # early exit on a full result and the sums that stop short of it
    assert (a._steps is None) == (a.factors[0].kind == "cayley")
    assert type(FinSet.from_mask(a, 1).raw) is int
    rng = random.Random(27)
    carrier = a.carrier()
    for _ in range(200):
        px = rng.choice((0.02, 0.1, 0.3, 0.7, 1.0))
        xs = [x for x in carrier if rng.random() < px]
        ys = rng.sample(carrier, rng.choice((1, 2, 3, 5, 12)))
        want = _oracle_mask(a, oracles.naive_sumset(a, xs, ys))
        assert setops._raw_sumset(a, _oracle_mask(a, xs), ys) == want
