"""Exhaustive and randomized verification harnesses.

A SearchSpec names a family of finite ambients, one registered checker,
how many summand sets each instance takes, subset filters, and a mode:
exhaustive (every tuple of carrier subsets, counted against a ceiling) or
random (seeded, a fixed number of trials).  Work is cut into fixed-size
items independent of the worker count, so two runs of the same spec agree
exactly no matter how many workers execute them; random instances are
derived from the seed and the trial index alone.

Violations embed the full ambient description and set encodings, so
`replay` can re-run the named checker on the exact instance with no other
state.
"""

import json
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .ambient import Ambient, ZMod, Product, make_ambient
from .errors import (
    CdlabError,
    CeilingExceeded,
    MalformedInstance,
    PreconditionViolated,
    SpecInvalid,
)
from .setops import DEFAULT_BUDGET, MEMO_SIZE, FinSet, is_commutative_generated
from . import theorems

DEFAULT_CEILING = 1 << 30
_CHUNK_EXHAUSTIVE = 1 << 16
_CHUNK_RANDOM = 4096


# -- checker registry ---------------------------------------------------------


def _holds(verdict):
    return verdict.holds


def _plain(verdict, sets):
    return verdict.to_json()


@dataclass(frozen=True)
class Checker:
    """The one declaration of a checker: fixed arity (None = any), the
    runner, the pass/fail reading of its verdict (None = not applicable,
    which is never a violation), the JSON encoding of the verdict, and
    whether its outcome is invariant under replacing (X, Y) by
    (X + y0, -y0 + Y) for a unit y0 of Y, which justifies pinning the
    identity into the last slot during exhaustive runs."""

    arity: object
    run: object                        # (sets, budget) -> verdict object
    ok: object = _holds                # verdict -> bool | None
    encode: object = _plain            # (verdict, sets) -> dict
    translation_invariant: bool = False


def _pair(fn):
    """Runner for a checker of one pair: fn(X, Y, budget)."""
    return lambda sets, budget: fn(sets[0], sets[1], budget)


CHECKERS = {
    "theorem": Checker(
        2,
        _pair(theorems.check_theorem_main),
        ok=lambda v: v.disjunction_holds,
        encode=lambda v, sets: v.to_json(sets[0].ambient),
        translation_invariant=True,
    ),
    "prop13": Checker(2, _pair(theorems.check_prop_equiv), ok=lambda v: v.agree),
    "udt": Checker(2, _pair(theorems.check_cor_udt), translation_invariant=True),
    "hs": Checker(2, _pair(theorems.check_cor_hs)),
    "zn": Checker(2, _pair(theorems.check_cor_zn), translation_invariant=True),
    "weaker": Checker(2, _pair(theorems.check_weaker_bound), translation_invariant=True),
    "conjecture": Checker(None, theorems.conjecture_holds, translation_invariant=True),
}

_ALIASES = {"theorem_main": "theorem"}


def resolve_checker(name) -> str:
    resolved = _ALIASES.get(name, name) if isinstance(name, str) else None
    if resolved not in CHECKERS:
        raise SpecInvalid(f"unknown checker {name!r}")
    return resolved


def run_checker(name, sets: list, budget: int):
    """Resolve a checker name, check that it takes len(sets) sets, run it,
    and return (ok, encoded verdict); ok is None when the checker does not
    apply, which is never a violation."""
    chk = CHECKERS[resolve_checker(name)]
    if chk.arity is not None and len(sets) != chk.arity:
        raise SpecInvalid(f"checker {name!r} takes {chk.arity} sets, got {len(sets)}")
    verdict = chk.run(sets, budget)
    return chk.ok(verdict), chk.encode(verdict, sets)


# -- abelian group enumeration --------------------------------------------------


def _factorize(m: int) -> dict:
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _partitions(e: int, cap: int = None):
    """Partitions of e as descending tuples."""
    if cap is None:
        cap = e
    if e == 0:
        yield ()
        return
    for first in range(min(e, cap), 0, -1):
        for rest in _partitions(e - first, first):
            yield (first,) + rest


def enumerate_abelian_groups(max_order: int):
    """One ambient per isomorphism class of abelian groups of order up to
    max_order, as cyclic factors in ascending invariant-factor form."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    out = []
    for m in range(1, max_order + 1):
        classes = []
        if m == 1:
            classes.append((1,))
        else:
            primes = sorted(_factorize(m).items())
            choices = [list(_partitions(e)) for _, e in primes]
            for combo in _product_lists(choices):
                depth = max(len(part) for part in combo)
                invariant = []
                for i in range(depth):
                    f = 1
                    for (p, _), part in zip(primes, combo):
                        if i < len(part):
                            f *= p ** part[i]
                    invariant.append(f)
                classes.append(tuple(reversed(invariant)))  # ascending
        for factors in sorted(classes, key=lambda fs: (len(fs), fs)):
            if len(factors) == 1:
                out.append(ZMod(factors[0]))
            else:
                out.append(Product(ZMod(d) for d in factors))
    return out


def _product_lists(lists):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for rest in _product_lists(lists[1:]):
            yield (head,) + rest


# -- search specification ---------------------------------------------------------


@dataclass
class SearchSpec:
    family: dict
    checker: str
    n_summands: int = 2
    subset_filter: dict = field(default_factory=dict)
    mode: dict = field(default_factory=lambda: {"kind": "exhaustive"})
    workers: int = 1
    budget: int = DEFAULT_BUDGET
    symmetry_reduction: bool = False
    ceiling: int = DEFAULT_CEILING

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "checker": self.checker,
            "n_summands": self.n_summands,
            "subset_filter": self.subset_filter,
            "mode": self.mode,
            "workers": self.workers,
            "budget": self.budget,
            "symmetry_reduction": self.symmetry_reduction,
            "ceiling": self.ceiling,
        }

    @staticmethod
    def from_json(doc: dict) -> "SearchSpec":
        if not isinstance(doc, dict):
            raise SpecInvalid(f"spec must be an object, got {doc!r}")
        known = {
            "family", "checker", "n_summands", "subset_filter", "mode",
            "workers", "budget", "symmetry_reduction", "ceiling",
        }
        unknown = set(doc) - known
        if unknown:
            raise SpecInvalid(f"unknown spec fields: {sorted(unknown)}")
        if "family" not in doc or "checker" not in doc:
            raise SpecInvalid("spec needs at least a family and a checker")
        return SearchSpec(
            family=doc["family"],
            checker=doc["checker"],
            n_summands=doc.get("n_summands", 2),
            subset_filter=doc.get("subset_filter", {}),
            mode=doc.get("mode", {"kind": "exhaustive"}),
            workers=doc.get("workers", 1),
            budget=doc.get("budget", DEFAULT_BUDGET),
            symmetry_reduction=doc.get("symmetry_reduction", False),
            ceiling=doc.get("ceiling", DEFAULT_CEILING),
        )


def _int_field(value, what: str, low=None, error=SpecInvalid) -> int:
    """An int that is not a bool, at least `low` when given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be at least {low}, got {value}")
    return value


def family_ambients(family: dict):
    if not isinstance(family, dict) or "kind" not in family:
        raise SpecInvalid(f"malformed ambient family: {family!r}")
    kind = family["kind"]
    if kind == "zmod_range":
        lo = _int_field(family.get("lo"), "zmod_range lo", 1)
        hi = _int_field(family.get("hi"), "zmod_range hi", lo)
        ambients = [ZMod(n) for n in range(lo, hi + 1)]
    elif kind == "abelian_up_to_order":
        ambients = enumerate_abelian_groups(
            _int_field(family.get("max_order"), "abelian_up_to_order max_order", 1)
        )
    elif kind == "explicit":
        descs = family.get("ambients")
        if not isinstance(descs, list) or not descs:
            raise SpecInvalid("explicit family needs a nonempty ambient list")
        try:
            ambients = [make_ambient(d) for d in descs]
        except CdlabError as exc:
            raise SpecInvalid(f"bad ambient in family: {exc}") from exc
    else:
        raise SpecInvalid(f"unknown family kind {kind!r}")
    for a in ambients:
        if a.carrier_size is None:
            raise SpecInvalid("search families must have finite carriers")
    return ambients


_FILTER_KEYS = {"nonempty", "contains_identity", "commutative_generated", "max_size"}
_FILTER_FLAGS = _FILTER_KEYS - {"max_size"}


def _validate_spec(spec: SearchSpec):
    name = resolve_checker(spec.checker)
    chk = CHECKERS[name]
    _int_field(spec.n_summands, "n_summands", 1)
    if chk.arity is not None and spec.n_summands != chk.arity:
        raise SpecInvalid(
            f"checker {name!r} takes {chk.arity} sets, spec asked for {spec.n_summands}"
        )
    filters = spec.subset_filter
    if not isinstance(filters, dict) or set(filters) - _FILTER_KEYS:
        raise SpecInvalid(f"subset_filter keys must be among {sorted(_FILTER_KEYS)}")
    for key in _FILTER_FLAGS & set(filters):
        if not isinstance(filters[key], bool):
            raise SpecInvalid(f"subset_filter {key} must be true or false")
    if filters.get("max_size") is not None:
        _int_field(filters["max_size"], "subset_filter max_size", 0)
    _int_field(spec.workers, "workers", 1)
    _int_field(spec.budget, "budget", 1)
    _int_field(spec.ceiling, "ceiling", 1)
    if not isinstance(spec.symmetry_reduction, bool):
        raise SpecInvalid("symmetry_reduction must be true or false")
    mode = spec.mode
    if not isinstance(mode, dict) or mode.get("kind") not in ("exhaustive", "random"):
        raise SpecInvalid("mode must be exhaustive or random")
    if mode["kind"] == "random":
        _int_field(mode.get("seed"), "random mode seed")
        _int_field(mode.get("trials"), "random mode trials", 1)
    ambients = family_ambients(spec.family)
    if spec.symmetry_reduction:
        if not chk.translation_invariant:
            raise SpecInvalid(f"checker {name!r} is not marked translation invariant")
        for a in ambients:
            if not (a.all_units and a.axioms.has_identity):
                raise SpecInvalid("symmetry reduction needs group ambients")
    return name, ambients


# -- instance geometry -------------------------------------------------------------


def _insert_identity_bit(j: int, pos: int) -> int:
    low = j & ((1 << pos) - 1)
    high = (j >> pos) << (pos + 1)
    return high | low | (1 << pos)


class _Space:
    """Digit bases of the subset-mask tuples of one ambient; slot 0 varies
    fastest.  With symmetry reduction the last slot runs over the empty
    mask plus the masks containing the identity."""

    def __init__(self, ambient: Ambient, n_summands: int, reduced: bool):
        n = ambient.carrier_size
        self.reduced = reduced
        self.bases = [1 << n] * n_summands
        if reduced:
            self.id_index = ambient.index_of(ambient.identity)
            self.bases[-1] = (1 << (n - 1)) + 1
        self.total = math.prod(self.bases)

    def digit_to_mask(self, slot: int, digit: int) -> int:
        if self.reduced and slot == len(self.bases) - 1:
            if digit == 0:
                return 0
            return _insert_identity_bit(digit - 1, self.id_index)
        return digit


# -- worker ------------------------------------------------------------------------


class _Context:
    def __init__(self, spec: SearchSpec):
        self.spec = spec
        self.checker_name, self.ambients = _validate_spec(spec)
        self.checker = CHECKERS[self.checker_name]
        self.f_nonempty = spec.subset_filter.get("nonempty", False)
        self.f_max_size = spec.subset_filter.get("max_size")
        self.f_identity = spec.subset_filter.get("contains_identity", False)
        self.f_commutative = spec.subset_filter.get("commutative_generated", False)
        if spec.mode["kind"] == "exhaustive":
            self.spaces = [
                _Space(a, spec.n_summands, spec.symmetry_reduction)
                for a in self.ambients
            ]
            self.offsets = []
            acc = 0
            for s in self.spaces:
                self.offsets.append(acc)
                acc += s.total
            self.total = acc
        else:
            self.total = spec.mode["trials"]
        self._columns = {}

    def column(self, ai: int, slot: int) -> list:
        """The sets of one slot of one ambient, indexed by digit: the
        decoded FinSet, or None where the subset filter rejects the mask.
        Slots other than the last share one column."""
        last = slot == self.spec.n_summands - 1
        col = self._columns.get((ai, last))
        if col is None:
            space = self.spaces[ai]
            decode = FinSet.from_mask  # the column is this slot's memo
            col = [
                _admit(self, ai, slot, space.digit_to_mask(slot, digit), decode)
                for digit in range(space.bases[slot])
            ]
            self._columns[(ai, last)] = col
        return col

    def locate(self, flat: int):
        for ai in range(len(self.spaces) - 1, -1, -1):
            if flat >= self.offsets[ai]:
                return ai, flat - self.offsets[ai]
        raise IndexError(flat)


@lru_cache(maxsize=1)
def _context(spec_json: str) -> _Context:
    """The context of the one search running; forked workers inherit the
    one run_search built."""
    return _Context(SearchSpec.from_json(json.loads(spec_json)))


@lru_cache(maxsize=MEMO_SIZE)
def _decode(ambient: Ambient, mask: int) -> FinSet:
    """Memo for sampled masks, which no column holds."""
    return FinSet.from_mask(ambient, mask)


def _admit(ctx: _Context, ai: int, slot: int, mask: int, decode):
    """The set of `mask` in this slot, decoded by `decode`, or None where
    the subset filter rejects it."""
    if ctx.f_nonempty and mask == 0:
        return None
    if ctx.f_max_size is not None and mask.bit_count() > ctx.f_max_size:
        return None
    a = ctx.ambients[ai]
    last = slot == ctx.spec.n_summands - 1
    if last and ctx.f_identity and not (
        a.axioms.has_identity and (mask >> a.index_of(a.identity)) & 1
    ):
        return None
    X = decode(a, mask)
    if last and ctx.f_commutative and not is_commutative_generated(X):
        return None
    return X


def _sweep(ctx: _Context, ai: int, heads, tail: list, tally: dict):
    """Run the checker on (X, *tail) for every X in heads, in order, and
    add the outcomes to the item's tally; a None head is a mask the subset
    filter rejected."""
    chk = ctx.checker
    run, ok_of = chk.run, chk.ok
    budget = ctx.spec.budget
    checked = skipped = 0
    for X in heads:
        if X is None:
            skipped += 1
            continue
        sets = [X, *tail]
        try:
            verdict = run(sets, budget)
        except PreconditionViolated:
            skipped += 1
            continue
        checked += 1
        if ok_of(verdict) is False:
            tally["violations"].append(
                {
                    "ambient": ctx.ambients[ai].describe(),
                    "checker": ctx.checker_name,
                    "sets": [s.to_json() for s in sets],
                    "budget": budget,
                    "verdict": chk.encode(verdict, sets),
                }
            )
    tally["checked"] += checked
    tally["skipped"] += skipped


def _run_exhaustive_range(ctx: _Context, start: int, end: int, tally: dict):
    """Walk flat indices [start, end) slab by slab: a slab fixes the
    trailing slots and sweeps slot 0 over a slice of its column."""
    flat = start
    while flat < end:
        ai, offset = ctx.locate(flat)
        space = ctx.spaces[ai]
        stop = min(end - ctx.offsets[ai], space.total)
        cols = [ctx.column(ai, slot) for slot in range(len(space.bases))]
        trailing = list(zip(cols[1:], space.bases[1:]))
        head_col, width = cols[0], space.bases[0]
        slab, lo = divmod(offset, width)
        while offset < stop:
            hi = min(width, lo + stop - offset)
            tail = []
            rest = slab
            for col, base in trailing:
                rest, digit = divmod(rest, base)
                tail.append(col[digit])
            if None in tail:
                tally["skipped"] += hi - lo
            else:
                _sweep(ctx, ai, head_col[lo:hi], tail, tally)
            offset += hi - lo
            slab += 1
            lo = 0
        flat = ctx.offsets[ai] + stop


def _sample_instance(ctx: _Context, index: int):
    rng = random.Random(f"{ctx.spec.mode['seed']}:{index}")
    ai = rng.randrange(len(ctx.ambients))
    n = ctx.ambients[ai].carrier_size
    sets = []
    for slot in range(ctx.spec.n_summands):
        for _ in range(100000):
            X = _admit(ctx, ai, slot, rng.getrandbits(n), _decode)
            if X is not None:
                sets.append(X)
                break
        else:
            raise SpecInvalid("subset filters rejected 100000 straight samples")
    return ai, sets


def _run_random_range(ctx: _Context, start: int, end: int, tally: dict):
    """Check each trial as a slab of one head."""
    for index in range(start, end):
        ai, sets = _sample_instance(ctx, index)
        _sweep(ctx, ai, sets[:1], sets[1:], tally)


def _run_item(payload):
    spec_json, item, start, end = payload
    ctx = _context(spec_json)
    tally = {"item": item, "checked": 0, "skipped": 0, "violations": []}
    if ctx.spec.mode["kind"] == "exhaustive":
        _run_exhaustive_range(ctx, start, end, tally)
    else:
        _run_random_range(ctx, start, end, tally)
    return tally


# -- driver -------------------------------------------------------------------------


@dataclass
class SearchReport:
    spec: dict
    instances_checked: int
    instances_skipped: int
    violations: list
    per_item: list
    workers: int
    seed: object
    elapsed: float

    def to_json(self) -> dict:
        doc = self.stable_json()
        doc["elapsed"] = self.elapsed
        return doc

    def stable_json(self) -> dict:
        """Everything except timing; equal across reruns and worker counts."""
        return {
            "spec": self.spec,
            "instances_checked": self.instances_checked,
            "instances_skipped": self.instances_skipped,
            "violations": self.violations,
            "per_item": self.per_item,
            "workers": self.workers,
            "seed": self.seed,
        }


def run_search(spec: SearchSpec) -> SearchReport:
    """Partition the instance space into fixed-size items, run them on the
    requested number of workers, and merge the results in item order."""
    started = time.monotonic()
    _validate_spec(spec)
    spec_json = json.dumps(spec.to_json(), sort_keys=True)
    ctx = _context(spec_json)
    if spec.mode["kind"] == "exhaustive":
        if ctx.total > spec.ceiling:
            raise CeilingExceeded(
                f"{ctx.total} instances exceed the ceiling {spec.ceiling}"
            )
        chunk = _CHUNK_EXHAUSTIVE
    else:
        chunk = _CHUNK_RANDOM
    payloads = []
    start = 0
    item = 0
    while start < ctx.total:
        end = min(start + chunk, ctx.total)
        payloads.append((spec_json, item, start, end))
        item += 1
        start = end
    if spec.workers == 1 or len(payloads) <= 1:
        results = [_run_item(p) for p in payloads]
    else:
        mp = multiprocessing.get_context("fork")
        with mp.Pool(spec.workers) as pool:
            results = pool.map(_run_item, payloads)
    violations = []
    checked = skipped = 0
    per_item = []
    for res in results:
        checked += res["checked"]
        skipped += res["skipped"]
        violations.extend(res["violations"])
        per_item.append(
            {
                "item": res["item"],
                "checked": res["checked"],
                "skipped": res["skipped"],
                "violations": len(res["violations"]),
            }
        )
    return SearchReport(
        spec=spec.to_json(),
        instances_checked=checked,
        instances_skipped=skipped,
        violations=violations,
        per_item=per_item,
        workers=spec.workers,
        seed=spec.mode.get("seed"),
        elapsed=time.monotonic() - started,
    )


def replay(instance: dict):
    """Re-run the named checker on a recorded instance encoding.

    Returns (ok, verdict); the verdict serializes byte-identically to the
    recorded one because every checker is a deterministic pure function.
    """
    if not isinstance(instance, dict):
        raise MalformedInstance(f"instance must be an object, got {instance!r}")
    try:
        ambient = make_ambient(instance["ambient"])
        name = instance["checker"]
        raw_sets = instance["sets"]
        if not isinstance(raw_sets, list) or not raw_sets:
            raise MalformedInstance("instance has no sets")
        sets = [FinSet.from_json(ambient, s) for s in raw_sets]
    except MalformedInstance:
        raise
    except (CdlabError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInstance(f"cannot decode instance: {exc}") from exc
    budget = _int_field(
        instance.get("budget", DEFAULT_BUDGET), "budget", 1, MalformedInstance
    )
    try:
        return run_checker(name, sets, budget)
    except SpecInvalid as exc:
        raise MalformedInstance(str(exc)) from exc
