"""Finite-subset arithmetic over an ambient.

FinSet is an immutable, canonically ordered set of elements of one ambient.
For ambients with a small finite carrier every set also has a bit-vector
over the carrier, and sumsets / difference sets run on masks (shift/OR for
zmod, table lookups otherwise).  Infinite ambients use per-pair division,
which is complete because cancellativity makes each solution unique.

Generated subsemigroups are computed by frontier expansion under a budget;
order computations consult each kind's analytic infinitude rule first, so
none of the built-in kinds can run away.
"""

from dataclasses import dataclass

from .ambient import Ambient, Cayley, ZMod, TABLE_CAP
from .errors import AmbientMismatch, BudgetExceeded
from .extnat import INF, ExtNat

DEFAULT_BUDGET = 10**6

# Entries kept by each memo (functools.lru_cache); it covers the largest
# column an exhaustive search walks, the 8,192 subsets of Z13.
MEMO_SIZE = 1 << 14


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_capable(a: Ambient) -> bool:
    size = a.carrier_size
    if size is None:
        return False
    if isinstance(a, (ZMod, Cayley)):
        return True
    return size <= TABLE_CAP


class FinSet:
    """A duplicate-free, canonically ordered set of ambient elements."""

    __slots__ = ("ambient", "elements", "_mask", "_hash")

    def __init__(self, ambient: Ambient, items=()):
        seen = set()
        for x in items:
            ambient.validate(x)
            seen.add(x)
        self.ambient = ambient
        self.elements = tuple(sorted(seen, key=ambient.sort_key))
        self._mask = None
        self._hash = None

    @staticmethod
    def _from_canonical(ambient, elements, mask=None):
        s = object.__new__(FinSet)
        s.ambient = ambient
        s.elements = elements
        s._mask = mask
        s._hash = None
        return s

    @staticmethod
    def empty(ambient):
        return FinSet._from_canonical(ambient, (), 0)

    @staticmethod
    def singleton(ambient, x):
        ambient.validate(x)
        return FinSet._from_canonical(ambient, (x,))

    @staticmethod
    def from_mask(ambient, mask):
        """Decode a carrier bit-vector; the carrier is in canonical order."""
        carrier = ambient.carrier()
        return FinSet._from_canonical(
            ambient, tuple(carrier[i] for i in _bits(mask)), mask
        )

    @property
    def mask(self) -> int:
        if self._mask is None:
            a = self.ambient
            m = 0
            for x in self.elements:
                m |= 1 << a.index_of(x)
            self._mask = m
        return self._mask

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __bool__(self):
        return bool(self.elements)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FinSet)
            and self.elements == other.elements
            and self.ambient == other.ambient
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ambient, self.elements))
        return h

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
    if X.ambient is not Y.ambient and X.ambient != Y.ambient:
        raise AmbientMismatch("operands live in different ambients")


def _sorted_finset(a, items):
    return FinSet._from_canonical(a, tuple(sorted(items, key=a.sort_key)))


# -- sumsets ---------------------------------------------------------------


def _zmod_sumset_mask(mx: int, ys, n: int) -> int:
    full = (1 << n) - 1
    acc = 0
    for y in ys:
        if y:
            acc |= ((mx << y) | (mx >> (n - y))) & full
        else:
            acc |= mx
    return acc


def _sumset_mask(X: FinSet, Y: FinSet):
    """Bit-vector of X+Y, or None when this ambient has no mask path."""
    a = X.ambient
    if type(a) is ZMod:
        return _zmod_sumset_mask(X.mask, Y.elements, a.n)
    if not _mask_capable(a):
        return None
    tbl = a.index_table()
    if tbl is None:
        return None
    acc = 0
    ybits = list(_bits(Y.mask))
    for xi in _bits(X.mask):
        row = tbl[xi]
        for yi in ybits:
            acc |= 1 << row[yi]
    return acc


def sumset(X: FinSet, Y: FinSet) -> FinSet:
    """X + Y = {x + y : x in X, y in Y}; empty if either operand is."""
    _same_ambient(X, Y)
    a = X.ambient
    if not X.elements or not Y.elements:
        return FinSet.empty(a)
    m = _sumset_mask(X, Y)
    if m is not None:
        return FinSet.from_mask(a, m)
    add = a.add
    out = {add(x, y) for x in X.elements for y in Y.elements}
    return _sorted_finset(a, out)


def sumset_size(X: FinSet, Y: FinSet) -> int:
    """|X + Y| without materializing the set when a mask path exists."""
    if X.ambient is not Y.ambient:
        _same_ambient(X, Y)
    if not X.elements or not Y.elements:
        return 0
    m = _sumset_mask(X, Y)
    if m is not None:
        return m.bit_count()
    add = X.ambient.add
    return len({add(x, y) for x in X.elements for y in Y.elements})


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
    if not X.elements or not Y.elements:
        return FinSet.empty(a)
    if isinstance(a, ZMod):
        n = a.n
        m = _zmod_sumset_mask(X.mask, [(n - y) % n for y in Y.elements], n)
        return FinSet.from_mask(a, m)
    if _mask_capable(a):
        # carrier scan: exact for non-cancellative tables as well
        tbl = a.index_table()
        mx = X.mask
        ybits = list(_bits(Y.mask))
        acc = 0
        for z in range(a.carrier_size):
            if side == "right":
                if any((mx >> tbl[z][yi]) & 1 for yi in ybits):
                    acc |= 1 << z
            else:
                row_hits = any((mx >> tbl[yi][z]) & 1 for yi in ybits)
                if row_hits:
                    acc |= 1 << z
        return FinSet.from_mask(a, acc)
    div = a.divide
    out = set()
    for x in X.elements:
        for y in Y.elements:
            z = div(side, x, y)
            if z is not None:
                out.add(z)
    return _sorted_finset(a, out)


def union(X: FinSet, Y: FinSet) -> FinSet:
    _same_ambient(X, Y)
    if not Y.elements:
        return X
    if not X.elements:
        return Y
    return _sorted_finset(X.ambient, set(X.elements) | set(Y.elements))


def is_subset(X: FinSet, Y: FinSet) -> bool:
    _same_ambient(X, Y)
    if _mask_capable(X.ambient):
        return X.mask & ~Y.mask == 0
    return set(X.elements) <= set(Y.elements)


def intersection(X: FinSet, Y: FinSet) -> FinSet:
    _same_ambient(X, Y)
    return _sorted_finset(X.ambient, set(X.elements) & set(Y.elements))


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
    return GenResult(_sorted_finset(a, seen), complete, len(seen))


def generated_sym(X: FinSet, budget: int = DEFAULT_BUDGET) -> GenResult:
    """Closure of X together with the inverses of its units."""
    a = X.ambient
    base = set(X.elements)
    for x in X.elements:
        if a.is_unit(x):
            base.add(a.invert(x))
    widened = _sorted_finset(a, base)
    return generated(widened, max(budget, len(base)))


def ord_elem(a: Ambient, x, budget: int = DEFAULT_BUDGET) -> ExtNat:
    """Size of the cyclic orbit {x, x+x, ...}, possibly INF."""
    a.validate(x)
    if a.ord_is_infinite(x):
        return INF
    bound = a.gen_size_bound((x,))
    cap = max(budget, bound) if bound != INF else budget
    add = a.add
    seen = set()
    z = x
    while z not in seen:
        if len(seen) >= cap:
            raise BudgetExceeded(f"orbit of {x!r} exceeded {cap} elements")
        seen.add(z)
        z = add(z, x)
    return len(seen)


def ord_set(X: FinSet, budget: int = DEFAULT_BUDGET) -> ExtNat:
    """Size of the subsemigroup generated by X, possibly INF.

    The analytic rules certify infinitude (a nonzero lattice vector, a
    nonempty word, an infinite factor orbit); when they certify a finite
    bound instead, the closure is enumerated to completion.
    """
    if not X.elements:
        return 0
    bound = X.ambient.gen_size_bound(X.elements)
    if bound == INF:
        return INF
    res = generated(X, max(budget, bound))
    if not res.complete:
        raise BudgetExceeded("closure did not stabilize within budget")
    return res.budget_used


def center(X: FinSet, candidates: FinSet = None) -> FinSet:
    """Elements of `candidates` commuting with everything in X; candidates
    defaults to the full carrier of a finite ambient."""
    a = X.ambient
    if candidates is None:
        if a.carrier_size is None:
            raise ValueError("candidates are required over an infinite ambient")
        candidates = FinSet._from_canonical(a, a.carrier())
    else:
        _same_ambient(X, candidates)
    add = a.add
    kept = tuple(
        z for z in candidates.elements if all(add(x, z) == add(z, x) for x in X.elements)
    )
    return FinSet._from_canonical(a, kept)


def units_of(X: FinSet) -> FinSet:
    """X intersected with the units of its ambient."""
    a = X.ambient
    if a.all_units:
        return X
    return FinSet._from_canonical(
        a, tuple(x for x in X.elements if a.is_unit(x))
    )


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
