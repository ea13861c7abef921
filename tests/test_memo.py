"""The library's memos are functools.lru_cache tables with a finite bound,
and what they return is what the undecorated functions compute."""

import importlib
import pkgutil
import random

import pytest

import cdlab
from cdlab import FinSet, SearchSpec, fixtures, gamma, make_ambient, run_search, search, theorems
from cdlab.setops import DEFAULT_BUDGET, MEMO_SIZE

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
    memos = {
        (mod.__name__, name): value
        for mod in MODULES
        for name, value in vars(mod).items()
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__
    }
    assert set(memos) >= {
        ("cdlab.gamma", "gamma_set"),
        ("cdlab.theorems", "_closure_pair"),
        ("cdlab.search", "_context"),
        ("cdlab.search", "_decode"),
    }
    for memo in memos.values():
        assert memo.cache_info().maxsize is not None
    assert gamma.gamma_set.cache_info().maxsize == MEMO_SIZE
    assert search._context.cache_info().maxsize == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_gamma_agrees_with_uncached(seed):
    for X in _seeded_sets(f"gamma:{seed}"):
        want = gamma.gamma_set.__wrapped__(X, DEFAULT_BUDGET)
        assert gamma.gamma_set(X, DEFAULT_BUDGET) == want
        assert gamma.gamma_set(X, DEFAULT_BUDGET) == want  # now a hit


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_closures_agree_with_uncached(seed):
    for S in _seeded_sets(f"closure:{seed}"):
        want = theorems._closure_pair.__wrapped__(S, DEFAULT_BUDGET)
        assert theorems._closure_pair(S, DEFAULT_BUDGET) == want
        assert theorems._closure_pair(S, DEFAULT_BUDGET) == want  # now a hit
