"""Every checker reads its sumsets as raw sets: carrier masks where the
ambient has them, frozensets of elements otherwise.  The element form, and
the double-loop sumsets of tests/oracles.py, are the oracle the mask form
is checked against."""

import json
import random
from collections import Counter

import pytest

import oracles
from cdlab import FinSet, fixtures, make_ambient, search, setops, theorems, units_of
from cdlab.errors import CdlabError

CHECKER_NAMES = tuple(search.CHECKERS)

# every module that binds the raw sumset kernel
RAW_USERS = (setops, theorems)

AMBIENTS = [make_ambient({"kind": "zmod", "n": n}) for n in range(1, 10)] + [
    make_ambient(
        {
            "kind": "product",
            "factors": [
                {"kind": "zmod", "n": 2},
                {"kind": "zmod", "n": 2},
                {"kind": "zmod", "n": 4},
            ],
        }
    ),
    fixtures.s3(),
]


def _pairs(a, k=60):
    rng = random.Random(f"structure:{a.describe()}")
    top = 1 << a.carrier_size
    return [
        (FinSet.from_mask(a, rng.randrange(top)), FinSet.from_mask(a, rng.randrange(top)))
        for _ in range(k)
    ]


def _outcome(name, X, Y):
    """The verdict JSON of one checker call, or the error it raised."""
    try:
        ok, doc = search.run_checker(name, [X, Y])
    except CdlabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([ok, doc], sort_keys=True)


def _oracle_witness(X, Y):
    """First unit y of Y, in canonical order, with X + Y + y = X + 2Y."""
    a = X.ambient
    xy = oracles.naive_sumset(a, X.elements, Y.elements)
    x2y = oracles.naive_sumset(a, xy, Y.elements)
    for y in units_of(Y).elements:
        if oracles.naive_sumset(a, xy, [y]) == x2y:
            return y
    return None


def _count_kernel_forms(monkeypatch):
    """Count raw sumset kernel calls by the form of their first operand."""
    forms = Counter()
    kernel = setops._raw_sumset

    def counted(a, r, ys):
        forms[type(r)] += 1
        return kernel(a, r, ys)

    for mod in RAW_USERS:
        monkeypatch.setattr(mod, "_raw_sumset", counted)
    return forms


@pytest.mark.parametrize("a", AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_mask_path_matches_element_path(a, monkeypatch):
    pairs = _pairs(a)
    forms = _count_kernel_forms(monkeypatch)
    fast = [[_outcome(name, X, Y) for name in CHECKER_NAMES] for X, Y in pairs]
    assert forms[int] and not forms[frozenset], "the mask path was not taken"

    monkeypatch.setattr(setops, "_mask_form", lambda a: False)
    forms.clear()
    slow = [[_outcome(name, X, Y) for name in CHECKER_NAMES] for X, Y in _pairs(a)]
    assert forms[frozenset] and not forms[int], "the element path was not taken"
    assert fast == slow


@pytest.mark.parametrize("a", AMBIENTS, ids=lambda a: a.kind + str(a.carrier_size))
def test_structure_witness_is_first_matching_unit(a):
    checked = 0
    for X, Y in _pairs(a):
        try:
            verdict = theorems.check_theorem_main(X, Y)
        except CdlabError:
            continue
        checked += 1
        want = _oracle_witness(X, Y)
        assert verdict.structure_witness == want
        assert verdict.branch_ii == (want is not None)
        xy = oracles.naive_sumset(a, X.elements, Y.elements)
        assert verdict.bound_lhs == len(xy)
    assert checked


def test_int_lattice_runs_the_element_path(monkeypatch):
    a = make_ambient({"kind": "int_lattice", "dim": 1})

    forms = _count_kernel_forms(monkeypatch)
    rng = random.Random("structure:int_lattice")
    for _ in range(40):
        X = FinSet(a, {(rng.randrange(-4, 5),) for _ in range(rng.randrange(1, 4))})
        Y = FinSet(a, {(rng.randrange(-4, 5),) for _ in range(rng.randrange(1, 4))})
        verdict = theorems.check_theorem_main(X, Y)
        assert verdict.structure_witness == _oracle_witness(X, Y)
        assert theorems.check_prop_equiv(X, Y).agree
    X = FinSet(a, [(0,), (1,), (2,)])
    Y = FinSet(a, [(5,)])
    assert theorems.check_theorem_main(X, Y).structure_witness == (5,)
    assert forms[frozenset] and not forms[int]
