"""The library's memos are functools.lru_cache tables with a finite bound,
and what they return is what the undecorated functions compute."""

import importlib
import pkgutil
import random
import re
from pathlib import Path

import pytest

import cdlab
from cdlab import (
    FinSet,
    SearchSpec,
    fixtures,
    gamma,
    make_ambient,
    run_search,
    search,
    setops,
    theorems,
)
from cdlab.setops import MEMO_SIZE

MODULES = [
    importlib.import_module(f"cdlab.{info.name}")
    for info in pkgutil.iter_modules(cdlab.__path__)
]

AMBIENTS = [
    make_ambient({"kind": "zmod", "n": 12}),
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}
    ),
    fixtures.s3(),
]


def _module_dict_sizes():
    return {
        (mod.__name__, name): len(value)
        for mod in MODULES
        for name, value in vars(mod).items()
        if type(value) is dict and not name.startswith("__")
    }


def _seeded_sets(seed, k=60):
    rng = random.Random(seed)
    out = []
    for _ in range(k):
        a = rng.choice(AMBIENTS)
        out.append(FinSet.from_mask(a, rng.randrange(1 << a.carrier_size)))
    return out


def test_random_search_leaves_module_dicts_unchanged():
    before = _module_dict_sizes()
    run_search(
        SearchSpec(
            family={"kind": "abelian_up_to_order", "max_order": 9},
            checker="conjecture",
            n_summands=3,
            subset_filter={"nonempty": True},
            mode={"kind": "random", "seed": 90210, "trials": 300},
        )
    )
    assert _module_dict_sizes() == before


def test_every_memo_is_bounded():
    # one cache policy: each memo is keyed on an ambient plus a raw set or
    # one element (or on the ambient alone), never on a FinSet
    memos = {
        (mod.__name__, name): value
        for mod in MODULES
        for name, value in vars(mod).items()
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__
    }
    assert set(memos) == {
        ("cdlab.gamma", "_gamma"),
        ("cdlab.gamma", "_order_levels"),
        ("cdlab.gamma", "_elem_ord"),
        ("cdlab.theorems", "_closure"),
        ("cdlab.search", "_decode"),
    }
    for memo in memos.values():
        assert memo.cache_info().maxsize is not None
    assert gamma._gamma.cache_info().maxsize == MEMO_SIZE
    assert theorems._closure.cache_info().maxsize == MEMO_SIZE


def test_no_hand_rolled_lazy_state():
    # one cache policy: what an object derives from itself is a
    # cached_property, not an attribute set to None and filled on first use
    pattern = re.compile(r"self\._\w+ (?:= None\b|is None\b)")
    found = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(cdlab.__path__[0]).glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_gamma_agrees_with_uncached(seed):
    for X in _seeded_sets(f"gamma:{seed}"):
        want = gamma._gamma.__wrapped__(X.ambient, X.raw)
        assert gamma._gamma(X.ambient, X.raw) == want
        assert gamma._gamma(X.ambient, X.raw) == want  # now a hit


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_closures_agree_with_uncached(seed):
    for S in _seeded_sets(f"closure:{seed}"):
        want = theorems._closure.__wrapped__(S.ambient, S.raw)
        assert theorems._closure(S.ambient, S.raw) == want
        assert theorems._closure(S.ambient, S.raw) == want  # now a hit


def test_gamma_column_is_gamma_of_each_mask():
    # the conjecture slab entry reads gamma by mask from the same memo
    # gamma_set reads, so both agree with the uncached constant
    for a in AMBIENTS:
        for m in range(1 << a.carrier_size):
            want = gamma._gamma.__wrapped__(a, m)
            assert gamma.gamma_set(FinSet.from_mask(a, m)) == want, (a.describe(), m)
            assert gamma._gamma(a, m) == want, (a.describe(), m)


WARM_AMBIENTS = [
    make_ambient({"kind": "zmod", "n": 10}),
    make_ambient(
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 4}]}
    ),
]


@pytest.mark.parametrize(
    "name", ["check_prop_equiv", "check_weaker_bound", "slab_conjecture", "conjecture_holds"]
)
def test_warm_lookups_decode_nothing(monkeypatch, name):
    # every FinSet lists its members through setops._elements, so a memo
    # keyed on a raw set is read warm without one being built; theorems
    # and gamma import _elements by name, so each module's binding is
    # counted.  The conjecture slab entry reads a one-set tail's elements
    # for its column, so it decodes nothing either.
    rng = random.Random(f"warm:{name}")
    fn = getattr(theorems, name)
    calls = []
    for a in WARM_AMBIENTS:
        size = a.carrier_size
        for _ in range(40):
            X, Y = (FinSet.from_mask(a, rng.randrange(1, 1 << size)) for _ in range(2))
            if name == "slab_conjecture":
                calls.append((range(1 << size), [Y]))
            elif name == "conjecture_holds":
                calls.append(([X, Y, X],))
            else:
                calls.append((X, Y))
    for args in calls:
        fn(*args)
    decoded = []
    real = setops._elements

    def counted(a, raw):
        decoded.append(raw)
        return real(a, raw)

    bound = [mod for mod in MODULES if getattr(mod, "_elements", None) is real]
    assert {mod.__name__ for mod in bound} >= {"cdlab.setops", "cdlab.theorems", "cdlab.gamma"}
    for mod in bound:
        monkeypatch.setattr(mod, "_elements", counted)
    for args in calls:
        fn(*args)
    assert decoded == []


def test_random_search_builds_no_index_table_over_zmod_products(monkeypatch):
    # products of zmod factors translate masks factor by factor
    # (Product._steps), so none of them adds elements pair by pair
    built = []
    enumerate_groups = search.enumerate_abelian_groups

    def recorded(top):
        built.extend(enumerate_groups(top))
        return built

    monkeypatch.setattr(search, "enumerate_abelian_groups", recorded)
    run_search(
        SearchSpec(
            family={"kind": "abelian_up_to_order", "max_order": 10},
            checker="conjecture",
            n_summands=3,
            subset_filter={"nonempty": True},
            mode={"kind": "random", "seed": 27, "trials": 4000},
        )
    )
    products = [a for a in built if a.kind == "product"]
    assert len(products) == 4
    for a in products:
        assert a._steps is not None


def test_every_kind_hashes_by_identity():
    # ambients are interned, so each memo lookup hashes its ambient in C
    kinds = AMBIENTS + WARM_AMBIENTS + [
        make_ambient({"kind": "int_lattice", "dim": 2}),
        make_ambient({"kind": "nat_lattice", "dim": 1}),
        make_ambient({"kind": "free_monoid", "alphabet": ["a"]}),
    ]
    assert {a.kind for a in kinds} == {
        "zmod", "product", "cayley", "int_lattice", "nat_lattice", "free_monoid"
    }
    for a in kinds:
        assert type(a).__hash__ is object.__hash__ and type(a).__eq__ is object.__eq__


def test_a_second_random_search_misses_no_memo():
    # criterion 8's random spec, shortened to stay inside each memo: the
    # second run builds its ambients again and gets the same objects back
    spec = SearchSpec(
        family={"kind": "abelian_up_to_order", "max_order": 10},
        checker="conjecture",
        n_summands=3,
        subset_filter={"nonempty": True},
        mode={"kind": "random", "seed": 2014, "trials": 2000},
    )
    first = run_search(spec)
    misses = [memo.cache_info().misses for memo in (search._decode, gamma._gamma)]
    second = run_search(spec)
    assert [memo.cache_info().misses for memo in (search._decode, gamma._gamma)] == misses
    assert second.stable_json() == first.stable_json()
