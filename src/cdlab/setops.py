"""Finite-subset arithmetic over an ambient.

FinSet is an immutable, canonically ordered set of elements of one ambient
that carries its raw set, chosen once when the set is built.  For zmod and
for finite ambients of at most TABLE_CAP elements a raw set is the
bit-vector over the carrier; other ambients use frozensets of elements.
Sumsets over zmod and over products of zmod factors run on masks, an OR of
shifted masks (two masked shifts per factor a translate moves); every
other sumset adds its elements pair by pair.
Difference sets scan the carrier of a finite ambient, which is exact
without cancellativity, and divide pair by pair over an infinite one.

Generated subsemigroups are computed by frontier expansion under a budget.
Orders are exact: they consult each kind's analytic rule first, which
either certifies infinitude or bounds the closure, and then walk the
closure to that bound, so none of the built-in kinds can run away.
"""

import math
from dataclasses import dataclass

from .ambient import Ambient, Product, ZMod, TABLE_CAP
from .errors import AmbientMismatch, ElementAmbientMismatch, InvariantBroken
from .extnat import INF, ExtNat

DEFAULT_BUDGET = 10**6

# Entries kept by each memo (functools.lru_cache); it covers the largest
# slot an exhaustive search walks, the 8,192 subsets of Z13.
MEMO_SIZE = 1 << 14


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_form(a: Ambient) -> bool:
    """True when sets over `a` are carrier masks, False when they are
    frozensets of elements; the one place that chooses the form."""
    if type(a) is ZMod:
        return True
    size = a.carrier_size
    return size is not None and size <= TABLE_CAP


def _raw_of(a: Ambient, items):
    """The raw set of some elements of `a`, which must be valid."""
    if not _mask_form(a):
        return frozenset(items)
    idx = a.index_of
    m = 0
    for x in items:
        m |= 1 << idx(x)
    return m


def _elements(a: Ambient, raw) -> tuple:
    """The members of raw set `raw`, in canonical order."""
    if type(raw) is int:
        if type(a) is ZMod:
            return tuple(_bits(raw))  # residue i is carrier element i
        carrier = a.carrier()
        return tuple([carrier[i] for i in _bits(raw)])
    return tuple(sorted(raw, key=a.sort_key))


class FinSet:
    """A duplicate-free, canonically ordered set of ambient elements.

    `raw` is the set itself, a carrier mask or a frozenset of elements
    (see _mask_form); `elements` lists it in canonical order."""

    __slots__ = ("ambient", "raw", "elements")

    def __init__(self, ambient: Ambient, items=()):
        seen = set()
        for x in items:
            ambient.validate(x)
            seen.add(x)
        self.ambient = ambient
        self.raw = raw = _raw_of(ambient, seen)
        self.elements = _elements(ambient, raw)

    @staticmethod
    def _of(a: Ambient, raw) -> "FinSet":
        """The FinSet of raw set `raw` over `a`."""
        s = object.__new__(FinSet)
        s.ambient = a
        s.raw = raw
        s.elements = _elements(a, raw)
        return s

    @staticmethod
    def singleton(ambient, x):
        return FinSet(ambient, (x,))

    @staticmethod
    def from_mask(ambient, mask):
        """Decode a carrier bit-vector, an int in [0, 2^carrier_size); the
        carrier is in canonical order."""
        size = ambient.carrier_size
        if type(mask) is not int or mask < 0 or (size is not None and mask >> size):
            raise ElementAmbientMismatch(
                f"{mask!r} is not a carrier mask of this {ambient.kind} ambient"
            )
        if _mask_form(ambient):
            return FinSet._of(ambient, mask)
        carrier = ambient.carrier()
        return FinSet._of(ambient, frozenset([carrier[i] for i in _bits(mask)]))

    @property
    def mask(self) -> int:
        if type(self.raw) is not int:
            raise ValueError(f"sets over this {self.ambient.kind} are frozensets, not masks")
        return self.raw

    def __len__(self):
        return _raw_size(self.raw)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FinSet)
            and self.raw == other.raw
            and self.ambient is other.ambient
        )

    def __hash__(self):
        return hash((self.ambient, self.raw))

    def __repr__(self):
        return f"FinSet({self.elements!r})"

    def to_json(self):
        enc = self.ambient.encode
        return [enc(x) for x in self.elements]

    @staticmethod
    def from_json(ambient, payload):
        if not isinstance(payload, list):
            raise AmbientMismatch(f"set encoding must be an array, got {payload!r}")
        return FinSet(ambient, (ambient.decode(v) for v in payload))


@dataclass(frozen=True)
class GenResult:
    """Outcome of a budgeted closure: the orbit reached, whether it is a
    fixpoint, and how many elements were materialized."""

    closure: FinSet
    complete: bool
    budget_used: int

    def to_json(self):
        return {
            "closure": self.closure.to_json(),
            "complete": self.complete,
            "budget_used": self.budget_used,
        }


def _same_ambient(X: FinSet, Y: FinSet):
    if X.ambient is not Y.ambient:
        raise AmbientMismatch("operands live in different ambients")


# -- raw sets ----------------------------------------------------------------
#
# A raw set is a carrier mask (an int) or a frozenset of elements.  Both
# forms support |, & and ==, so past _mask_form only the kernel below,
# _raw_size and _elements tell them apart.


def _zmod_sumset_mask(mx: int, ys, n: int) -> int:
    """OR of the rotations of mx by each residue in ys; stops once full."""
    full = (1 << n) - 1
    acc = 0
    for y in ys:
        acc |= (mx << y) | (mx >> (n - y))
        if acc & full == full:
            break
    return acc & full


def _raw_sumset(a: Ambient, r, ys):
    """X + Y as a raw set, from X's raw set r and Y's elements.  Over zmod
    and over products of zmod factors it ORs the translates of the mask r
    (Product._steps), stopping once the result is full; every other raw
    set is decoded and added pair by pair."""
    if type(r) is int:
        if type(a) is ZMod:
            return _zmod_sumset_mask(r, ys, a.n)
        steps = a._steps if type(a) is Product else None
        if steps is not None:
            full = (1 << a.carrier_size) - 1
            acc = 0
            for y in ys:
                m = r
                for up, hi, down, lo in steps[y]:
                    m = (m << up) & hi | (m >> down) & lo
                acc |= m
                if acc == full:
                    break
            return acc
        r = _elements(a, r)
    add = a.add
    return _raw_of(a, [add(x, y) for x in r for y in ys])


def _raw_size(r) -> int:
    return r.bit_count() if type(r) is int else len(r)


def _raw_column(a: Ambient, ys) -> list:
    """col[m] = X_m + Y as a mask for every carrier mask m, where X_m is
    the set of mask m and ys are Y's elements; `a` must be of mask form.

    X + Y is the union of x + Y over x in X, so the column doubles once
    per carrier element i: the upper half is the lower half OR (i + Y).
    """
    col = [0]
    for i in range(a.carrier_size):
        r = _raw_sumset(a, 1 << i, ys)
        col += [c | r for c in col]
    return col


def _translation_classes(a: Ambient):
    """(cls, members) over a commutative group `a` of mask form, indexed
    by carrier mask m: cls[m] is the least mask of X + g over every carrier
    element g, where X is the set of mask m, so two masks share it exactly
    when one is a translate of the other, and members[m] is the list of
    the masks of that class in ascending order, one list per class.

    One ascending walk fills both: the first mask not yet seen is the
    least of its class, and each of its translates gets it.  Over zmod the
    translates are the n rotations of m, written out, which builds the
    table in half the time of one `_raw_sumset` per rotation (1.0 ms
    against 2.1 ms over Z11); other ambients take them from `_raw_sumset`."""
    size = 1 << a.carrier_size
    if type(a) is ZMod:
        n, full = a.n, size - 1

        def translates(m):
            return [(m << g | m >> (n - g)) & full for g in range(n)]

    else:
        carrier = a.carrier()

        def translates(m):
            return [_raw_sumset(a, m, (g,)) for g in carrier]

    cls = [-1] * size
    members = [None] * size
    for m in range(size):
        if cls[m] < 0:
            orbit = sorted(set(translates(m)))
            for t in orbit:
                cls[t] = m
                members[t] = orbit
    return cls, members


def _same(m: int) -> int:
    return m


def _unit_maps(a: Ambient) -> list:
    """The automorphisms x -> ux of `a` as maps of carrier masks, the
    identity first: over zmod one per unit u of Z_n, from the mask of X to
    the mask of uX; every other ambient gets the identity alone.  A map
    walks the bits of the one mask it is given (about 1 us over Z11), so
    no table of 2^n images is built per unit."""
    maps = [_same]
    if type(a) is ZMod:
        n = a.n
        for u in range(2, n):
            if math.gcd(u, n) == 1:

                def scale(m, images=[1 << u * i % n for i in range(n)]):
                    out = 0
                    while m:
                        low = m & -m
                        out |= images[low.bit_length() - 1]
                        m ^= low
                    return out

                maps.append(scale)
    return maps


# -- sumsets ---------------------------------------------------------------


def sumset(X: FinSet, Y: FinSet) -> FinSet:
    """X + Y = {x + y : x in X, y in Y}; empty if either operand is."""
    _same_ambient(X, Y)
    a = X.ambient
    return FinSet._of(a, _raw_sumset(a, X.raw, Y.elements))


def sumset_size(X: FinSet, Y: FinSet) -> int:
    """|X + Y| without materializing the set."""
    if X.ambient is not Y.ambient:
        _same_ambient(X, Y)
    return _raw_size(_raw_sumset(X.ambient, X.raw, Y.elements))


def iterated_sumset(n: int, X: FinSet) -> FinSet:
    """The n-fold sumset of X with itself; 1X = X."""
    if n < 1:
        raise ValueError("iterated sumset needs n >= 1")
    acc = X
    for _ in range(n - 1):
        acc = sumset(acc, X)
    return acc


# -- difference sets -------------------------------------------------------


def difference(side: str, X: FinSet, Y: FinSet) -> FinSet:
    """Right: {z : z+y = x for some x in X, y in Y}; left solves y+z = x.

    May be empty even when X and Y are not (no solutions below the
    identity in N, no suffix match in a free monoid, ...).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    _same_ambient(X, Y)
    a = X.ambient
    rx = X.raw
    if a.carrier_size is None:
        # per-pair division: each solution is unique in the cancellative
        # infinite kinds; an ambiguous division raises
        div = a.divide
        out = {div(side, x, y) for x in rx for y in Y.elements}
        out.discard(None)
        return FinSet._of(a, frozenset(out))
    if type(a) is ZMod:
        n = a.n
        neg = [(n - y) % n for y in Y.elements]
        return FinSet._of(a, _zmod_sumset_mask(rx, neg, n))
    # carrier scan, z kept when some z + y (right) or y + z (left) is in X:
    # exact for non-cancellative ambients as well
    if type(rx) is int:
        idx = a.index_of

        def hit(w):
            return rx >> idx(w) & 1

    else:
        hit = rx.__contains__
    add = a.add
    ys = Y.elements
    if side == "right":
        hits = [z for z in a.carrier() if any(hit(add(z, y)) for y in ys)]
    else:
        hits = [z for z in a.carrier() if any(hit(add(y, z)) for y in ys)]
    return FinSet._of(a, _raw_of(a, hits))


def union(X: FinSet, Y: FinSet) -> FinSet:
    _same_ambient(X, Y)
    return FinSet._of(X.ambient, X.raw | Y.raw)


def intersection(X: FinSet, Y: FinSet) -> FinSet:
    _same_ambient(X, Y)
    return FinSet._of(X.ambient, X.raw & Y.raw)


def is_subset(X: FinSet, Y: FinSet) -> bool:
    _same_ambient(X, Y)
    rx = X.raw
    return rx & Y.raw == rx


# -- generated subsemigroups and orders -------------------------------------


def generated(X: FinSet, budget: int = DEFAULT_BUDGET) -> GenResult:
    """Closure of X under the ambient operation, by frontier expansion.

    Every element of the subsemigroup generated by X is a sum of
    generators, so right-extending the frontier by the generators reaches
    all of it.  Expansion stops at a fixpoint or once the closure holds
    `budget` elements; exhaustion is reported, never raised.
    """
    if budget < len(X.elements):
        raise ValueError("budget must be at least |X|")
    a = X.ambient
    if not X.elements:
        return GenResult(X, True, 0)
    add = a.add
    gens = X.elements
    seen = set(gens)
    frontier = list(gens)
    complete = True
    while frontier and complete:
        fresh = []
        for s in frontier:
            for g in gens:
                t = add(s, g)
                if t not in seen:
                    if len(seen) >= budget:
                        complete = False
                        break
                    seen.add(t)
                    fresh.append(t)
            if not complete:
                break
        frontier = fresh
    return GenResult(FinSet._of(a, _raw_of(a, seen)), complete, len(seen))


def generated_sym(X: FinSet, budget: int = DEFAULT_BUDGET) -> GenResult:
    """Closure of X together with the inverses of its units."""
    a = X.ambient
    base = set(X.elements)
    for x in X.elements:
        if a.is_unit(x):
            base.add(a.invert(x))
    widened = FinSet._of(a, _raw_of(a, base))
    return generated(widened, max(budget, len(base)))


def ord_elem(a: Ambient, x) -> ExtNat:
    """Size of the cyclic orbit {x, x+x, ...}, possibly INF: the order of
    the singleton {x}."""
    return ord_set(FinSet(a, (x,)))


def ord_set(X: FinSet) -> ExtNat:
    """Size of the subsemigroup generated by X, possibly INF."""
    if not X.elements:
        return 0
    walked = _closure_walk(X, generated)
    return INF if walked is None else walked.budget_used


def _closure_walk(X: FinSet, walk):
    """The closure rule: walk(X, bound), or None when the kind's
    gen_size_bound certifies infinitude (a nonzero lattice vector, a
    nonempty word, an infinite factor orbit).  A walk that outgrows a
    finite bound means the kind's rule is wrong: InvariantBroken.  When
    the rule walks, <X> is finite, so each unit u of X has a finite order
    k and its inverse, u or (k - 1)u, lies in <X>: adjoining the inverses
    of X's units (generated_sym) walks the same closure."""
    bound = X.ambient.gen_size_bound(X.elements)
    if bound == INF:
        return None
    res = walk(X, bound)
    if not res.complete:
        raise InvariantBroken(f"closure outgrew its bound {bound}")
    return res


def center(X: FinSet, candidates: FinSet = None) -> FinSet:
    """Elements of `candidates` commuting with everything in X; candidates
    defaults to the full carrier of a finite ambient."""
    a = X.ambient
    if candidates is None:
        if a.carrier_size is None:
            raise ValueError("candidates are required over an infinite ambient")
        pool = a.carrier()
    else:
        _same_ambient(X, candidates)
        pool = candidates.elements
    add = a.add
    kept = [z for z in pool if all(add(x, z) == add(z, x) for x in X.elements)]
    return FinSet._of(a, _raw_of(a, kept))


def units_of(X: FinSet) -> FinSet:
    """X intersected with the units of its ambient."""
    a = X.ambient
    if a.all_units:
        return X
    return FinSet._of(a, _raw_of(a, [x for x in X.elements if a.is_unit(x)]))


def is_commutative_generated(Y: FinSet) -> bool:
    """True iff the subsemigroup generated by Y is commutative.

    Pairwise commuting generators suffice: every member of the closure is a
    sum of generators, and adjacent generators in such sums can be swapped
    one at a time.  The equivalence with a direct check of the closure is
    property-tested on finite ambients.
    """
    a = Y.ambient
    if a.axioms.commutative:
        return True
    add = a.add
    elems = Y.elements
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if add(x, y) != add(y, x):
                return False
    return True
