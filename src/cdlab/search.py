"""Exhaustive and randomized verification harnesses.

A SearchSpec names a family of finite ambients, one registered checker,
how many summand sets each instance takes, subset filters, and a mode:
exhaustive (every tuple of carrier subsets, counted against a ceiling) or
random (seeded, a fixed number of trials).  Work is cut into items
independent of the worker count, so two runs of the same spec agree
exactly no matter how many workers execute them: an exhaustive item is a
run of whole slabs, a random one a run of trials, and random instances
are derived from the seed and the trial index alone.

A random trial reads its own bit stream, the blake2b digests of the seed,
the trial index and a block counter, and draws from it the ambient and
then each set, uniformly over the masks the subset filter admits
(cdlab.sampling, which random mode alone loads).

Each run builds one search context from its spec: the one place the spec
is validated and the ceiling checked, holding each ambient's slot masks
and what the walk builds from them for the ambient it is in.  It is
handed to the walk, and forked workers inherit it, so no state of one run
reaches the next.

An exhaustive item is walked slab by slab over carrier masks: a slab
fixes the trailing sets and runs slot 0 over all of its admitted heads.
A checker with a slab entry vouches for whole slabs at once from
one sumset column and hands back only the heads it cannot vouch for,
which go through the per-instance runner like every head of the other
checkers.  When the tail fails the checker's hypotheses the entry raises
PreconditionViolated and every head of the slab goes to the runner.

Over an abelian group the search reads the symmetry contract stated in
the Checker docstring.  For the ambient being walked the context keeps one
class table, the least translate and the class of every carrier mask, and
a memo keyed on a tail's masks: on their classes for a translation
invariant checker, on the masks themselves for hs.  The entry runs once
per orbit of tails under the units of Z_n and, where flagged, the
translations, on one head per class of admitted heads; what it hands back
is stored for every u-image of the tail together with u, and a tail that
finds it maps each head by u and expands it to its class.  The runner
still runs each of those heads against the actual tail, so counts and
violations are exact.  A set is decoded only where a slab entry, a runner
or a filter reads it.

Violations embed the full ambient description and set encodings, so
`replay` can re-run the named checker on the exact instance with no other
state.
"""

import math
import os
import pickle
import time
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

from .ambient import Ambient, ZMod, Product, make_ambient
from .errors import (
    CdlabError,
    CeilingExceeded,
    MalformedInstance,
    PreconditionViolated,
    SpecInvalid,
)
from .setops import (
    MEMO_SIZE,
    FinSet,
    _mask_form,
    _translation_classes,
    _unit_maps,
    is_commutative_generated,
)
from . import theorems

DEFAULT_CEILING = 1 << 30
# random mode draws a set over n elements as one integer of n bits from its
# trial's stream: this caps the bits a single set draws (2^31 - 1 bits,
# 256 MB), and a larger carrier is refused before its family is built
_MAX_DRAW_BITS = (1 << 31) - 1
# the least number of instances in an exhaustive item; an item ends at the
# first slab boundary at or after it
_CHUNK_EXHAUSTIVE = 1 << 16
_CHUNK_RANDOM = 4096


# -- checker registry ---------------------------------------------------------


@dataclass(frozen=True)
class Checker:
    """The one declaration of a checker: fixed arity (None = any), the
    runner, whether it is translation invariant, an optional slab entry,
    and the one ambient kind it runs over (None = any).  The runner's
    verdict reads and encodes itself: `holds` is its pass/fail reading
    (None = not applicable, which is never a violation) and `to_json()`
    its JSON encoding.

    The symmetry contract.  Every bound reads only sizes, sumsets,
    closures and orders, so three maps leave verdicts alone, and the
    search relies on each of them; a checker added later must keep them.

    - Head translation, every checker, over an abelian group (commutative,
      with an identity and only units): mapping the head X to X + g gives
      the same `holds`, since X + Y, X + 2Y, X u (X + Y) and X + <<Y>> all
      move by g and the tail does not move.  So a slab entry, given every
      head of some translation classes, hands back a union of those
      classes.
    - Tail translation, what `translation_invariant` adds: translating
      each set by an element of its own gives the same `holds`, so the
      slab entry hands back the same heads for every translate of the
      tail.  Over any group this also gives the same `holds` on
      (X + y0, -y0 + Y) as on (X, Y) for a unit y0 of Y, which justifies
      pinning the identity into the last slot (symmetry reduction).  hs
      is not flagged: (Y + g) u {0} is no translate of Y u {0}.
    - Units, every checker, over Z_n: mapping every set by x -> ux for a
      unit u is an automorphism, so it gives the same `holds`, and the
      slab entry hands back, for the tail uT, the u-images of the heads it
      hands back for T.

    The class memo of the exhaustive walk (see _Context.view) runs an
    entry once per orbit of tails under these maps, on one head per
    translation class, and expands the heads it hands back to their
    classes.

    A slab entry vouches for heads in bulk.  Given the masks of the heads
    of one exhaustive slab that the subset filter admits (slot 0, in order)
    and the decoded tail, it returns the list of heads it cannot vouch
    for, in order: violations, heads the runner would skip, and heads it
    cannot decide.  Every other head must be one the runner checks and
    does not fail.  The search calls it only over ambients whose sets are
    carrier masks, and only with a tail of at least one set.  It raises
    PreconditionViolated, through the helper it shares with its runner,
    when the tail fails the runner's hypotheses; the search then sends
    every head through the runner, which skips them."""

    arity: object
    run: object                        # sets -> verdict object
    translation_invariant: bool = False
    slab: object = None                # (head masks, tail) -> head masks
    ambient_kind: object = None        # the one Ambient.kind it accepts


def _pair(fn):
    """Runner for a checker of one pair: fn(X, Y)."""
    return lambda sets: fn(sets[0], sets[1])


CHECKERS = {
    "theorem": Checker(
        2,
        _pair(theorems.check_theorem_main),
        translation_invariant=True,
        slab=theorems.slab_theorem_main,
    ),
    "prop13": Checker(2, _pair(theorems.check_prop_equiv)),
    "udt": Checker(
        2,
        _pair(theorems.check_cor_udt),
        translation_invariant=True,
        slab=theorems.slab_cor_udt,
    ),
    "hs": Checker(2, _pair(theorems.check_cor_hs), slab=theorems.slab_cor_hs),
    "zn": Checker(
        2, _pair(theorems.check_cor_zn), translation_invariant=True, ambient_kind="zmod"
    ),
    "weaker": Checker(2, _pair(theorems.check_weaker_bound), translation_invariant=True),
    "conjecture": Checker(
        None,
        theorems.conjecture_holds,
        translation_invariant=True,
        slab=theorems.slab_conjecture,
    ),
}

_ALIASES = {"theorem_main": "theorem"}


def resolve_checker(name) -> str:
    resolved = _ALIASES.get(name, name) if isinstance(name, str) else None
    if resolved not in CHECKERS:
        raise SpecInvalid(f"unknown checker {name!r}")
    return resolved


def run_checker(name, sets: list):
    """Resolve a checker name, check that it takes len(sets) sets, run it,
    and return (ok, encoded verdict); ok is None when the checker does not
    apply, which is never a violation."""
    chk = CHECKERS[resolve_checker(name)]
    if chk.arity is not None and len(sets) != chk.arity:
        raise SpecInvalid(f"checker {name!r} takes {chk.arity} sets, got {len(sets)}")
    verdict = chk.run(sets)
    return verdict.holds, verdict.to_json()


# -- abelian group enumeration --------------------------------------------------


def _invariant_factors(m: int, d: int = 1):
    """The chains f1 | f2 | ... | fk with product m, d | f1 and every
    factor above 1 (the chain (1,) when m = 1): the ascending invariant
    factors of the abelian groups of order m.  A factor f other than the
    last leaves m / f, a multiple of f, so f * f <= m."""
    if m % d == 0:
        yield (m,)
    for f in range(d, math.isqrt(m) + 1, d):
        if f > 1 and m % f == 0:
            for rest in _invariant_factors(m // f, f):
                yield (f,) + rest


def enumerate_abelian_groups(max_order: int):
    """One ambient per isomorphism class of abelian groups of order up to
    max_order, as cyclic factors in ascending invariant-factor form."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    out = []
    for m in range(1, max_order + 1):
        for factors in sorted(_invariant_factors(m), key=lambda fs: (len(fs), fs)):
            if len(factors) == 1:
                out.append(ZMod(factors[0]))
            else:
                out.append(Product(ZMod(d) for d in factors))
    return out


# -- search specification ---------------------------------------------------------


@dataclass
class SearchSpec:
    family: dict
    checker: str
    n_summands: int = 2
    subset_filter: dict = field(default_factory=dict)
    mode: dict = field(default_factory=lambda: {"kind": "exhaustive"})
    workers: int = 1
    symmetry_reduction: bool = False
    ceiling: int = DEFAULT_CEILING

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "SearchSpec":
        if not isinstance(doc, dict):
            raise SpecInvalid(f"spec must be an object, got {doc!r}")
        unknown = set(doc) - {f.name for f in fields(SearchSpec)}
        if unknown:
            raise SpecInvalid(f"unknown spec fields: {sorted(unknown)}")
        if "family" not in doc or "checker" not in doc:
            raise SpecInvalid("spec needs at least a family and a checker")
        return SearchSpec(**doc)


def _int_field(value, what: str, low=None, error=SpecInvalid) -> int:
    """An int that is not a bool, at least `low` when given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be at least {low}, got {value}")
    return value


def _only_keys(doc: dict, what: str, *keys):
    """Reject every key of doc other than kind and keys."""
    unknown = set(doc) - {"kind", *keys}
    if unknown:
        raise SpecInvalid(f"unknown {what} keys: {sorted(unknown)}")


def _family(family) -> tuple:
    """Validate a family description and return (bound, build): the
    largest carrier the family holds, read from hi or max_order before any
    of its ambients exists, and the function that builds its ambients.  An
    explicit family is built here, since its description lists each
    ambient."""
    if not isinstance(family, dict) or "kind" not in family:
        raise SpecInvalid(f"malformed ambient family: {family!r}")
    kind = family["kind"]
    if kind == "zmod_range":
        _only_keys(family, "zmod_range family", "lo", "hi")
        lo = _int_field(family.get("lo"), "zmod_range lo", 1)
        hi = _int_field(family.get("hi"), "zmod_range hi", lo)
        return hi, lambda: [ZMod(n) for n in range(lo, hi + 1)]
    if kind == "abelian_up_to_order":
        _only_keys(family, "abelian_up_to_order family", "max_order")
        top = _int_field(family.get("max_order"), "abelian_up_to_order max_order", 1)
        return top, lambda: enumerate_abelian_groups(top)
    if kind != "explicit":
        raise SpecInvalid(f"unknown family kind {kind!r}")
    _only_keys(family, "explicit family", "ambients")
    descs = family.get("ambients")
    if not isinstance(descs, list) or not descs:
        raise SpecInvalid("explicit family needs a nonempty ambient list")
    try:
        ambients = [make_ambient(d) for d in descs]
    except CdlabError as exc:
        raise SpecInvalid(f"bad ambient in family: {exc}") from exc
    if any(a.carrier_size is None for a in ambients):
        raise SpecInvalid("search families must have finite carriers")
    return max(a.carrier_size for a in ambients), lambda: ambients


def family_ambients(family: dict):
    """Validate a family description and build its ambients, in order."""
    return _family(family)[1]()


_FILTER_KEYS = {"nonempty", "contains_identity", "commutative_generated", "max_size"}
_FILTER_FLAGS = _FILTER_KEYS - {"max_size"}


def _over_ceiling(bits: int, ceiling: int) -> CeilingExceeded:
    """The error for a space of at least 2^bits instances, above ceiling."""
    return CeilingExceeded(f"at least 2**{bits} instances exceed the ceiling {ceiling}")


def _instances(n: int, n_summands: int, reduced: bool) -> int:
    """The instances of one ambient of n elements, without building a slot:
    a reduced last slot runs over the empty mask and the 2^(n-1) masks
    containing the identity."""
    last = (1 << n - 1) + 1 if reduced else 1 << n
    return (1 << n) ** (n_summands - 1) * last


def _slots(ambient: Ambient, n_summands: int, reduced: bool) -> list:
    """The masks each slot of one ambient runs over, indexed by digit;
    slot 0 varies fastest.  With symmetry reduction the last slot runs over
    the empty mask plus the masks containing the identity."""
    full = range(1 << ambient.carrier_size)
    slots = [full] * n_summands
    if reduced:
        i = ambient.index_of(ambient.identity)
        slots[-1] = [0] + [m for m in full if m >> i & 1]
    return slots


# -- worker ------------------------------------------------------------------------


class _Context:
    """One search: its spec, validated, its slot masks, the view of the
    one ambient the walk is in, and the draws of each ambient a random
    trial has landed in.  run_search builds one per run and
    hands it to the walk, and forked workers inherit it, so nothing of one
    run outlives it."""

    def __init__(self, spec: SearchSpec):
        name = resolve_checker(spec.checker)
        chk = CHECKERS[name]
        k = _int_field(spec.n_summands, "n_summands", 1)
        if chk.arity is not None and k != chk.arity:
            raise SpecInvalid(f"checker {name!r} takes {chk.arity} sets, spec asked for {k}")
        filters = spec.subset_filter
        if not isinstance(filters, dict) or set(filters) - _FILTER_KEYS:
            raise SpecInvalid(f"subset_filter keys must be among {sorted(_FILTER_KEYS)}")
        for key in _FILTER_FLAGS & set(filters):
            if not isinstance(filters[key], bool):
                raise SpecInvalid(f"subset_filter {key} must be true or false")
        if filters.get("max_size") is not None:
            _int_field(filters["max_size"], "subset_filter max_size", 0)
        _int_field(spec.workers, "workers", 1)
        _int_field(spec.ceiling, "ceiling", 1)
        if not isinstance(spec.symmetry_reduction, bool):
            raise SpecInvalid("symmetry_reduction must be true or false")
        mode = spec.mode
        if not isinstance(mode, dict) or mode.get("kind") not in ("exhaustive", "random"):
            raise SpecInvalid("mode must be exhaustive or random")
        exhaustive = mode["kind"] == "exhaustive"
        if exhaustive:
            _only_keys(mode, "exhaustive mode")
        else:
            _only_keys(mode, "random mode", "seed", "trials")
            _int_field(mode.get("seed"), "random mode seed")
            _int_field(mode.get("trials"), "random mode trials", 1)
        bound, build = _family(spec.family)
        if not exhaustive and bound > _MAX_DRAW_BITS:
            raise SpecInvalid(
                f"random mode draws sets over at most {_MAX_DRAW_BITS} elements, "
                f"got a carrier of {bound}"
            )
        if exhaustive:
            # an ambient of n elements has more than 2^(n k - 1) instances
            # over k slots, since a reduced slot keeps more than half of its
            # masks; checked before any ambient is built, so that every mask
            # list built after it holds at most `ceiling` masks
            bits = bound * k - 1
            if bits >= (spec.ceiling - 1).bit_length():
                raise _over_ceiling(bits, spec.ceiling)
        ambients = build()
        for a in ambients:
            if chk.ambient_kind not in (None, a.kind):
                raise SpecInvalid(
                    f"checker {name!r} runs over {chk.ambient_kind} ambients only, got {a.kind}"
                )
        if spec.symmetry_reduction:
            if not chk.translation_invariant:
                raise SpecInvalid(f"checker {name!r} is not marked translation invariant")
            for a in ambients:
                if not (a.all_units and a.axioms.has_identity):
                    raise SpecInvalid("symmetry reduction needs group ambients")
        self.spec = spec
        self.checker_name = name
        self.checker = chk
        self.ambients = ambients
        self.f_nonempty = filters.get("nonempty", False)
        self.f_max_size = filters.get("max_size")
        self.f_identity = filters.get("contains_identity", False)
        self.f_commutative = filters.get("commutative_generated", False)
        if exhaustive:
            # the whole family meets the ceiling before any slot is built
            total = sum(_instances(a.carrier_size, k, spec.symmetry_reduction) for a in ambients)
            if total > spec.ceiling:
                raise _over_ceiling(total.bit_length() - 1, spec.ceiling)
            self.slots = [_slots(a, k, spec.symmetry_reduction) for a in ambients]
        else:
            # each ambient's draws, planned by cdlab.sampling
            self.draws = {}
        self._view = (None, None)

    def view(self, ai: int) -> tuple:
        """What the walk reads of ambient ai, as (heads, entry, classes):
        the slot-0 masks the subset filter admits, in order; the slab
        entry, or None where it cannot run (it reads carrier masks, and one
        summand leaves it no tail); and None unless the class memo serves,
        where it is (keys, members, reps, memo, units).  It serves every
        entry over an abelian group (commutative, with an identity and only
        units), by the symmetry contract in Checker's docstring.  members
        is the class list of setops._translation_classes and reps the
        admitted heads least in their class; keys is that table's least
        translate for a translation invariant checker and each mask itself
        otherwise (hs); units are the maps of setops._unit_maps, the
        identity alone off Z_n.  The memo maps the keys of a tail's masks
        to the heads the entry handed back for a tail T and the map of a
        unit u such that uT has those keys.  Built when the walk enters
        ambient ai and replaced when it moves on: segments run in ambient
        order, so neither an in-process walk nor a forked worker returns to
        an ambient it has left."""
        if self._view[0] != ai:
            a = self.ambients[ai]
            chk = self.checker
            heads = [m for m in self.slots[ai][0] if _admits(self, ai, 0, m)]
            entry = chk.slab if len(self.slots[ai]) > 1 and _mask_form(a) else None
            classes = None
            ax = a.axioms
            if entry is not None and ax.commutative and ax.has_identity and a.all_units:
                cls, members = _translation_classes(a)
                keys = cls if chk.translation_invariant else range(1 << a.carrier_size)
                reps = [m for m in heads if cls[m] == m]
                classes = (keys, members, reps, {}, _unit_maps(a))
            self._view = (ai, (heads, entry, classes))
        return self._view[1]


@lru_cache(maxsize=MEMO_SIZE)
def _decode(ambient: Ambient, mask: int) -> FinSet:
    """The one memo of decoded sets: exhaustive tails, the heads that
    reach a runner, and random draws."""
    return FinSet.from_mask(ambient, mask)


def _admits(ctx: _Context, ai: int, slot: int, mask: int) -> bool:
    """Whether the subset filter admits `mask` in this slot; only the
    commutative_generated test, on the last slot, decodes the set."""
    if ctx.f_nonempty and mask == 0:
        return False
    if ctx.f_max_size is not None and mask.bit_count() > ctx.f_max_size:
        return False
    if slot != ctx.spec.n_summands - 1:
        return True
    a = ctx.ambients[ai]
    if ctx.f_identity and not (
        a.axioms.has_identity and (mask >> a.index_of(a.identity)) & 1
    ):
        return False
    return not ctx.f_commutative or is_commutative_generated(_decode(a, mask))


def _sweep(ctx: _Context, instances, tally: dict):
    """Run the checker on the sets of every (ambient index, sets) pair of
    the iterable instances, in order, and add the outcomes to the item's
    tally."""
    run = ctx.checker.run
    checked = skipped = 0
    for ai, sets in instances:
        try:
            verdict = run(sets)
        except PreconditionViolated:
            skipped += 1
            continue
        checked += 1
        if verdict.holds is False:
            tally["violations"].append(
                {
                    "ambient": ctx.ambients[ai].describe(),
                    "checker": ctx.checker_name,
                    "sets": [s.to_json() for s in sets],
                    "verdict": verdict.to_json(),
                }
            )
    tally["checked"] += checked
    tally["skipped"] += skipped


def _vouch(slab_entry, heads: list, tail: list) -> list:
    """The heads the slab entry hands back; all of them when the tail
    fails the checker's hypotheses, so that the runner skips each."""
    try:
        return slab_entry(heads, tail)
    except PreconditionViolated:
        return heads


def _run_exhaustive_range(ctx: _Context, segments: list, tally: dict):
    """Walk the slabs [first, end) of ambient ai for each (ai, first, end)
    of segments: a slab fixes the trailing slots and sweeps slot 0 over
    every admitted head.  Heads the filter rejects are skipped, heads the
    checker's slab entry vouches for are checked, and only the heads left
    over go through _sweep.  Over an abelian group an entry runs on one
    head per translation class, once per orbit of tails under the maps of
    the symmetry contract (Checker's docstring) that move tails.
    The tail is decoded only where the entry or the runner reads it, and
    the pending heads are decoded one at a time as the runner reaches them."""
    for ai, first, end in segments:
        a = ctx.ambients[ai]
        heads, slab_entry, classes = ctx.view(ai)
        if classes is not None:
            keys, members, reps, memo, units = classes
        trailing = [(masks, len(masks)) for masks in ctx.slots[ai][1:]]
        width = len(ctx.slots[ai][0])
        for slab in range(first, end):
            tail = []
            rest = slab
            for masks, base in trailing:
                rest, digit = divmod(rest, base)
                tail.append(masks[digit])
            if not all(_admits(ctx, ai, slot, m) for slot, m in enumerate(tail, 1)):
                tally["skipped"] += width
                continue
            tally["skipped"] += width - len(heads)
            if classes is not None:
                key = tuple([keys[m] for m in tail])
                if key not in memo:
                    # the filter admits whole classes of heads and the entry
                    # hands back whole classes, so each representative it
                    # hands back stands for its class; on a failed
                    # hypothesis that is every admitted head.  The tail uT
                    # gets the u-images of them, the identity coming first
                    found = _vouch(slab_entry, reps, [_decode(a, m) for m in tail])
                    for unit in units:
                        memo.setdefault(tuple([keys[unit(m)] for m in tail]), (found, unit))
                found, unit = memo[key]
                pending = sorted([m for r in found for m in members[unit(r)]])
            elif slab_entry is not None:
                pending = _vouch(slab_entry, heads, [_decode(a, m) for m in tail])
            else:
                pending = heads
            tally["checked"] += len(heads) - len(pending)
            if pending:
                sets = [_decode(a, m) for m in tail]
                _sweep(ctx, ((ai, [_decode(a, m), *sets]) for m in pending), tally)


def _run_random_range(ctx: _Context, start: int, end: int, tally: dict):
    """Check the trials [start, end) in one sweep."""
    from .sampling import sample_instance

    _sweep(ctx, (sample_instance(ctx, index) for index in range(start, end)), tally)


def _run_item(ctx: _Context, item: int, work):
    tally = {"item": item, "checked": 0, "skipped": 0, "violations": []}
    if ctx.spec.mode["kind"] == "exhaustive":
        _run_exhaustive_range(ctx, work, tally)
    else:
        _run_random_range(ctx, *work, tally)
    return tally


def _run_forked(ctx: _Context, work: list, workers: int) -> list:
    """The tallies of every item of `work`, in item order, run on `workers`
    processes.  The items are cut into min(workers, len(work)) contiguous
    runs; one child is forked per run after the first and the parent runs
    the first itself, so a process builds the view of an ambient once and
    only for the ambients its run reaches.  A child sends its tallies, or
    the exception it raised, pickled through its own pipe and leaves
    through os._exit.  A child that dies before it has sent them raises
    RuntimeError; a child's exception is raised again here with its own
    type.  No child outlives the call: whatever the parent raises, the
    children still running are killed and reaped."""
    jobs = list(enumerate(work))
    n = min(workers, len(jobs)) or 1
    runs = [jobs[k * len(jobs) // n : (k + 1) * len(jobs) // n] for k in range(n)]
    children = []  # (pid, read end), in run order, until reaped
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = pickle.dumps([_run_item(ctx, *job) for job in run])
                    except BaseException as exc:
                        out = pickle.dumps(exc)
                    with open(w, "wb") as fh:
                        fh.write(out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        results = [_run_item(ctx, *job) for job in runs[0]]
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(r)
            if status:
                raise RuntimeError(
                    f"search worker {pid} ended without its results (wait status {status})"
                )
            out = pickle.loads(data)
            if isinstance(out, BaseException):
                raise out
            results.extend(out)
        return results
    finally:
        if children:
            import signal  # loaded only where a run fails

            for pid, r in children:
                os.close(r)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
        """Everything except timing.  Equal across reruns; across worker
        counts everything but `workers`, here and in `spec`, is equal."""
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
    """Validate the spec into a fresh context, partition the instance
    space into items, run them on the requested number of workers, and
    merge the results in item order.

    The workers are this process and one forked child per further run of
    items (_run_forked): with one worker or one item nothing is forked.  A
    child that dies fails the search with RuntimeError at once, a child's
    exception is raised here with its own type, and no child outlives the
    call.

    A random item is a run of _CHUNK_RANDOM trials.  An exhaustive item is
    a run of whole slabs, possibly across ambients: it closes at the first
    slab boundary where it holds at least _CHUNK_EXHAUSTIVE instances, so
    only the last item may hold fewer.  A one-summand spec has one slab
    per ambient, so each of its ambients lands whole in one item."""
    started = time.monotonic()
    ctx = _Context(spec)
    if spec.mode["kind"] == "exhaustive":
        # whole slabs in ambient order, as (ambient index, first slab, end
        # slab) segments, filled into an item until it reaches the chunk
        work, item, size = [], [], 0
        for ai, slots in enumerate(ctx.slots):
            width = len(slots[0])
            slabs, first = math.prod(map(len, slots[1:])), 0
            while first < slabs:
                end = min(slabs, first + (_CHUNK_EXHAUSTIVE - size + width - 1) // width)
                item.append((ai, first, end))
                size += (end - first) * width
                first = end
                if size >= _CHUNK_EXHAUSTIVE:
                    work.append(item)
                    item, size = [], 0
        if item:
            work.append(item)
    else:
        trials = spec.mode["trials"]
        starts = range(0, trials, _CHUNK_RANDOM)
        work = [(start, min(start + _CHUNK_RANDOM, trials)) for start in starts]
    results = _run_forked(ctx, work, spec.workers)
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
    # violation records carry their verdict, which replay recomputes, and
    # records of earlier versions a budget, which orders no longer read
    unknown = set(instance) - {"ambient", "checker", "sets", "budget", "verdict"}
    if unknown:
        raise MalformedInstance(f"unknown instance keys: {sorted(unknown)}")
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
    if "budget" in instance:
        _int_field(instance["budget"], "budget", 1, MalformedInstance)
    try:
        return run_checker(name, sets)
    except SpecInvalid as exc:
        raise MalformedInstance(str(exc)) from exc
