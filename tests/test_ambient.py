import json
import random

import pytest

from cdlab import make_ambient
from cdlab.ambient import Cayley, ZMod
from cdlab.errors import (
    ElementAmbientMismatch,
    MalformedDescription,
    NonAssociativeTable,
    NonCancellativeAmbiguity,
)
from cdlab import fixtures

# multiplication table of S3 entered by hand (composition applies the
# right factor first), element order e, (12), (13), (23), (123), (132)
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 5, 4, 3, 2],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 4, 0, 2, 1],
    [4, 2, 3, 1, 5, 0],
    [5, 3, 1, 2, 0, 4],
]


def test_zmod_axioms():
    a = make_ambient({"kind": "zmod", "n": 5})
    ax = a.axioms
    assert ax.associative and ax.cancellative and ax.commutative
    assert ax.has_identity and ax.identity == 0
    assert ax.finite_order == 5


def test_s3_fixture_matches_hand_table():
    s3 = fixtures.s3()
    assert [list(r) for r in s3.table] == S3_TABLE


def test_s3_axiom_scan():
    s3 = make_ambient({"kind": "cayley", "table": S3_TABLE})
    ax = s3.axioms
    assert ax.cancellative
    assert not ax.commutative
    assert ax.identity == 0
    assert ax.finite_order == 6


def test_left_zero_band_not_cancellative():
    band = fixtures.left_zero_band(2)
    assert band.axioms.associative
    assert not band.axioms.cancellative
    assert not band.axioms.has_identity


def test_non_associative_table_rejected():
    # 2-element magma with x+y = 1 except 1+1 = 0 fails (0+1)+1 = 1+(1+1)
    with pytest.raises(NonAssociativeTable) as exc:
        make_ambient({"kind": "cayley", "table": [[1, 1], [1, 0]]})
    i, j, k = exc.value.triple
    assert all(v in (0, 1) for v in (i, j, k))


def test_malformed_descriptions():
    for desc in (
        {"kind": "nope"},
        {"kind": "zmod"},
        {"kind": "zmod", "n": 0},
        {"kind": "cayley", "table": [[0, 1]]},
        {"kind": "cayley", "table": [[0, 2], [1, 0]]},
        {"kind": "cayley", "table": [[0]], "labels": ["a", "b"]},
        {"kind": "int_lattice", "dim": 0},
        {"kind": "free_monoid", "alphabet": ["ab"]},
        {"kind": "free_monoid", "alphabet": ["a", "a"]},
        {"kind": "product", "factors": []},
        [],
    ):
        with pytest.raises(MalformedDescription):
            make_ambient(desc)


def test_add_examples():
    z6 = make_ambient({"kind": "zmod", "n": 6})
    assert z6.add(4, 5) == 3
    fm = make_ambient({"kind": "free_monoid", "alphabet": ["a", "b"]})
    assert fm.add("ab", "ba") == "abba"
    nat2 = make_ambient({"kind": "nat_lattice", "dim": 2})
    assert nat2.add((1, 0), (2, 3)) == (3, 3)


def test_divide_examples():
    z6 = make_ambient({"kind": "zmod", "n": 6})
    assert z6.divide("right", 1, 2) == 5
    nat = make_ambient({"kind": "nat_lattice", "dim": 1})
    assert nat.divide("right", (3,), (5,)) is None
    fm = make_ambient({"kind": "free_monoid", "alphabet": ["a", "b"]})
    assert fm.divide("right", "abba", "ba") == "ab"
    assert fm.divide("right", "abba", "ab") is None
    assert fm.divide("left", "abba", "ab") == "ba"


def test_divide_ambiguity_on_non_cancellative_table():
    band = fixtures.left_zero_band(2)
    # y + z = y for every z, so left division by any y in X is ambiguous
    with pytest.raises(NonCancellativeAmbiguity):
        band.divide("left", 0, 0)
    # right division solves z + y = z = x uniquely
    assert band.divide("right", 1, 0) == 1


def test_units_examples():
    z6 = make_ambient({"kind": "zmod", "n": 6})
    assert z6.is_unit(4) and z6.invert(4) == 2
    nat = make_ambient({"kind": "nat_lattice", "dim": 1})
    assert nat.is_unit((0,)) and not nat.is_unit((3,))
    assert nat.invert((3,)) is None
    fm = make_ambient({"kind": "free_monoid", "alphabet": ["a"]})
    assert fm.is_unit("") and not fm.is_unit("a")
    s3 = fixtures.s3()
    assert all(s3.is_unit(x) for x in range(6))
    assert s3.invert(4) == 5  # (123)^-1 = (132)


def test_product_axioms_compose():
    p = make_ambient(
        {
            "kind": "product",
            "factors": [{"kind": "zmod", "n": 2}, {"kind": "nat_lattice", "dim": 1}],
        }
    )
    assert p.axioms.cancellative and p.axioms.commutative
    assert p.axioms.identity == (0, (0,))
    assert p.axioms.finite_order is None
    assert not p.all_units
    q = make_ambient(
        {
            "kind": "product",
            "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}],
        }
    )
    assert q.axioms.finite_order == 6 and q.all_units
    noncomm = make_ambient(
        {
            "kind": "product",
            "factors": [fixtures.s3().describe(), {"kind": "zmod", "n": 2}],
        }
    )
    assert not noncomm.axioms.commutative


_TRIVIAL_FM = {"kind": "free_monoid", "alphabet": []}
# every finite kind: zmod, cayley groups, monoids and a band, the one-word
# free monoid, and products of them
FINITE_AMBIENTS = [make_ambient({"kind": "zmod", "n": n}) for n in (1, 2, 6)] + [
    fixtures.s3(),
    fixtures.d4(),
    fixtures.q8(),
    fixtures.left_zero_band(3),
    make_ambient({"kind": "cayley", "table": [[i * j % 4 for j in range(4)] for i in range(4)]}),
    make_ambient({"kind": "cayley", "table": [[i | j for j in range(4)] for i in range(4)]}),
    make_ambient(_TRIVIAL_FM),
    make_ambient({"kind": "product", "factors": [_TRIVIAL_FM, {"kind": "zmod", "n": 5}]}),
    make_ambient({"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}),
    make_ambient({"kind": "product", "factors": [fixtures.s3().describe(), _TRIVIAL_FM]}),
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, fixtures.left_zero_band(2).describe()]}
    ),
]


@pytest.mark.parametrize("a", FINITE_AMBIENTS, ids=lambda a: f"{a.kind}{a.carrier_size}")
def test_all_units_says_every_element_is_a_unit(a):
    assert a.all_units == all(a.is_unit(x) for x in a.carrier())


def test_element_validation():
    z6 = make_ambient({"kind": "zmod", "n": 6})
    for bad in (6, -1, "3", True):
        with pytest.raises(ElementAmbientMismatch):
            z6.validate(bad)
    nat = make_ambient({"kind": "nat_lattice", "dim": 2})
    for bad in ((1,), (1, -1), [1, 2]):
        with pytest.raises(ElementAmbientMismatch):
            nat.validate(bad)
    fm = make_ambient({"kind": "free_monoid", "alphabet": ["a", "b"]})
    with pytest.raises(ElementAmbientMismatch):
        fm.validate("abc")


def test_json_element_round_trip():
    cases = [
        ({"kind": "zmod", "n": 6}, 4),
        ({"kind": "int_lattice", "dim": 2}, (-1, 3)),
        ({"kind": "free_monoid", "alphabet": ["a", "b"]}, "ab"),
        (
            {
                "kind": "product",
                "factors": [{"kind": "zmod", "n": 4}, {"kind": "int_lattice", "dim": 1}],
            },
            (3, (-2,)),
        ),
    ]
    for desc, x in cases:
        a = make_ambient(desc)
        assert a.decode(a.encode(x)) == x
        assert make_ambient(a.describe()) == a


Z2_TABLE = [[0, 1], [1, 0]]


def test_identity_is_description():
    nested = {
        "kind": "product",
        "factors": [
            {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "nat_lattice", "dim": 1}]},
            {"kind": "free_monoid", "alphabet": ["a"]},
        ],
    }
    ambients = [make_ambient(d) for d in ALL_KINDS + [nested]] + [
        fixtures.s3(),
        make_ambient({"kind": "cayley", "table": Z2_TABLE}),
    ]
    for a in ambients:
        b = make_ambient(json.loads(json.dumps(a.describe())))
        assert b is not a and b == a and hash(b) == hash(a)
    unequal = [
        ({"kind": "int_lattice", "dim": 2}, {"kind": "nat_lattice", "dim": 2}),
        (
            {"kind": "cayley", "table": Z2_TABLE},
            {"kind": "cayley", "table": Z2_TABLE, "labels": ["e", "g"]},
        ),
        (
            {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]},
            {"kind": "product", "factors": [{"kind": "zmod", "n": 3}, {"kind": "zmod", "n": 2}]},
        ),
        ({"kind": "zmod", "n": 2}, {"kind": "cayley", "table": Z2_TABLE}),
        ({"kind": "free_monoid", "alphabet": ["a", "b"]}, {"kind": "free_monoid", "alphabet": ["b", "a"]}),
    ]
    for d1, d2 in unequal:
        assert make_ambient(d1) != make_ambient(d2)


def _random_element(rng, a):
    kind = a.kind
    if kind in ("zmod", "cayley"):
        return rng.randrange(a.carrier_size)
    if kind == "int_lattice":
        return tuple(rng.randrange(-20, 21) for _ in range(a.dim))
    if kind == "nat_lattice":
        return tuple(rng.randrange(0, 21) for _ in range(a.dim))
    if kind == "free_monoid":
        return "".join(rng.choice(a.alphabet) for _ in range(rng.randrange(0, 6)))
    if kind == "product":
        return tuple(_random_element(rng, f) for f in a.factors)
    raise AssertionError(kind)


ALL_KINDS = [
    {"kind": "zmod", "n": 12},
    {"kind": "int_lattice", "dim": 2},
    {"kind": "nat_lattice", "dim": 3},
    {"kind": "free_monoid", "alphabet": ["a", "b", "c"]},
    {
        "kind": "product",
        "factors": [{"kind": "zmod", "n": 4}, {"kind": "free_monoid", "alphabet": ["x"]}],
    },
]


def test_random_associativity_every_kind():
    rng = random.Random(20240111)
    ambients = [make_ambient(d) for d in ALL_KINDS] + [fixtures.s3(), fixtures.q8()]
    for a in ambients:
        for _ in range(1000):
            x, y, z = (_random_element(rng, a) for _ in range(3))
            assert a.add(a.add(x, y), z) == a.add(x, a.add(y, z))


def test_random_cancellativity_where_reported():
    rng = random.Random(77)
    ambients = [make_ambient(d) for d in ALL_KINDS] + [fixtures.d4()]
    for a in ambients:
        assert a.axioms.cancellative
        for _ in range(300):
            z = _random_element(rng, a)
            x1 = _random_element(rng, a)
            x2 = _random_element(rng, a)
            if x1 == x2:
                continue
            assert a.add(z, x1) != a.add(z, x2)
            assert a.add(x1, z) != a.add(x2, z)


def test_divide_add_round_trip():
    rng = random.Random(99)
    for a in [make_ambient(d) for d in ALL_KINDS] + [fixtures.s3()]:
        for _ in range(300):
            x = _random_element(rng, a)
            y = _random_element(rng, a)
            s = a.add(x, y)
            assert a.divide("right", s, y) == x
            assert a.divide("left", s, x) == y
            for side in ("right", "left"):
                z = a.divide(side, x, y)
                if z is not None:
                    back = a.add(z, y) if side == "right" else a.add(y, z)
                    assert back == x


def test_invert_is_unit_coherence():
    rng = random.Random(5)
    for a in [make_ambient(d) for d in ALL_KINDS] + [fixtures.q8()]:
        for _ in range(200):
            x = _random_element(rng, a)
            w = a.invert(x)
            assert (w is not None) == a.is_unit(x)
            if w is not None:
                assert a.add(x, w) == a.identity == a.add(w, x)
                assert a.invert(w) == x


def test_cayley_carrier_and_index_table():
    s3 = fixtures.s3()
    assert s3.carrier() == tuple(range(6))
    z = ZMod(7)
    assert isinstance(z, ZMod) and z.index_of(3) == 3
    q8 = fixtures.q8()
    assert isinstance(q8, Cayley) and q8.axioms.finite_order == 8
    assert not q8.axioms.commutative
