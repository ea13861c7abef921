"""Cauchy-Davenport constants of sets and tuples, and unit-shift transforms.

The constant of a set X is a sup-inf over the units of X of orders of
differences: sup over x0 in the units of X of inf over the other x in X of
ord(x - x0), with sup({}) = 0 and inf({}) = INF, and gamma(X) = |X| when
|X| <= 1.  Differences use x + (-x0), which is well defined because x0 is
a unit.  Values are exact; there is no estimation fallback.

Orders are read, not walked, once known: a mask-form ambient of at most
TABLE_CAP elements has one order table, built from ord_elem on the first
constant asked of it, which also holds, for each element x0, the masks of
the x with ord(x - x0) = o, so the inner infimum is a few mask tests with
no inverse and no sumset.  Every other ambient, infinite ones included,
memoizes ord_elem per element.  Constants are memoized per ambient and
raw set, so a caller holding only a mask reads one without decoding it.

An invariant transform replaces (X, Y) by (X + y0, -y0 + Y) for a unit
y0 of Y.  It preserves |X + Y|, both set sizes, and both constants; those
three facts are verified on every constructed transform.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .ambient import TABLE_CAP
from .errors import (
    AmbientMismatch,
    EmptySet,
    InvariantBroken,
    NotAUnit,
    NoWitness,
    PreconditionViolated,
)
from .extnat import INF, ExtNat, encode_extnat
from .setops import (
    MEMO_SIZE,
    FinSet,
    _elements,
    _raw_sumset,
    _same_ambient,
    ord_elem,
    sumset,
    sumset_size,
    units_of,
)

@dataclass(frozen=True)
class GammaValue:
    """The constant of one set plus the unit witnessing the sup (the
    maximizing x0 of smallest canonical order), when the sup is over a
    nonempty unit set."""

    value: ExtNat
    witness: Optional[object] = None

    def to_json(self, ambient):
        return {
            "value": encode_extnat(self.value),
            "witness": None if self.witness is None else ambient.encode(self.witness),
        }


def gamma_set(X: FinSet) -> GammaValue:
    """The Cauchy-Davenport constant of a single set."""
    return _gamma(X.ambient, X.raw)


@lru_cache(maxsize=MEMO_SIZE)
def _gamma(a, raw) -> GammaValue:
    """gamma_set of the set with raw set `raw` over `a`: the one memo of
    constants, keyed on the raw set so that a lookup decodes nothing."""
    X = FinSet._of(a, raw)
    if len(X.elements) <= 1:
        return GammaValue(len(X.elements), None)
    best: ExtNat = 0
    wit = None
    for x0 in units_of(X).elements:
        inner = _inf_order(a, raw, x0)
        if inner > best:
            best = inner
            wit = x0
    return GammaValue(best, wit)


@lru_cache(maxsize=MEMO_SIZE)
def _order_levels(a) -> tuple:
    """(levels, rows), the order table of a mask-form ambient of at most
    TABLE_CAP elements.  levels lists, for each order o in ascending order,
    the pair (o, L_o) of o and the carrier mask L_o of the elements of
    order o.  rows[i] lists, in ascending order o, the pairs
    (o, (L_o + x_i) without bit i) whose mask is not empty, for the i-th
    carrier element x_i.  For a unit x_i, x -> x - x_i maps L_o + x_i onto
    L_o and x_i to the identity, so rows[i] holds the x != x_i of each
    order ord(x - x_i), over a non-abelian table as well (L_o is closed
    under conjugation, so its left and right translates by a unit are
    equal).  The cap bounds the build: it enumerates every orbit, about
    n^2 adds over Z_n, and the rows translate each level once per element
    with `_raw_sumset`."""
    carrier = a.carrier()
    levels = {}
    for i, x in enumerate(carrier):
        o = ord_elem(a, x)
        levels[o] = levels.get(o, 0) | (1 << i)
    levels = tuple(sorted(levels.items()))
    rows = tuple(
        tuple([(o, r) for o, L in levels if (r := _raw_sumset(a, L, (x,)) & ~(1 << i))])
        for i, x in enumerate(carrier)
    )
    return levels, rows


@lru_cache(maxsize=MEMO_SIZE)
def _elem_ord(a, x) -> ExtNat:
    """ord_elem of x over an ambient without an order table."""
    return ord_elem(a, x)


def _inf_order(a, raw, x0) -> ExtNat:
    """inf over the x in raw set `raw` other than x0 of ord(x - x0), for a
    unit x0: the inner infimum of the constant.  Over an ambient with an
    order table it is the first order whose row of x0 meets `raw`."""
    if type(raw) is int:
        if a.carrier_size <= TABLE_CAP:
            for o, row in _order_levels(a)[1][a.index_of(x0)]:
                if raw & row:
                    return o
            return INF
        raw = _elements(a, raw)  # zmod above the cap
    neg = a.invert(x0)
    inner: ExtNat = INF
    for x in raw:
        if x != x0:
            o = _elem_ord(a, a.add(x, neg))
            if o < inner:
                inner = o
    return inner


def gamma_tuple(Xs) -> ExtNat:
    """Constant of a tuple: 0 when any component is empty, else the max of
    the component constants.  One pass: past an empty component no
    constant is read, but every ambient is still checked, so a mismatch
    raises AmbientMismatch before an empty set makes the constant 0."""
    Xs = list(Xs)
    if not Xs:
        raise ValueError("gamma_tuple needs at least one set")
    first = Xs[0].ambient
    best: ExtNat = 0
    empty = False
    for X in Xs:
        a = X.ambient
        if a is not first and a != first:
            raise AmbientMismatch("tuple components live in different ambients")
        if not X.raw:
            empty = True
        elif not empty:
            g = _gamma(a, X.raw).value
            if g > best:
                best = g
    return 0 if empty else best


def min_order(Y: FinSet) -> ExtNat:
    """Minimal order among the elements of a nonempty set."""
    if not Y.elements:
        raise EmptySet("min_order of the empty set")
    a = Y.ambient
    return min(ord_elem(a, y) for y in Y.elements)


@dataclass(frozen=True)
class InvariantTransform:
    """The pair (X + shift, -shift + Y); invariant_transform verifies the
    three defining identities before it builds one."""

    x0: FinSet
    y0: FinSet
    shift: object


def invariant_transform(X: FinSet, Y: FinSet, y0) -> InvariantTransform:
    """Translate X right by y0 and Y left by its inverse, verifying the
    size and constant preservation identities on the result."""
    _same_ambient(X, Y)
    a = X.ambient
    if not (a.axioms.cancellative and a.axioms.has_identity):
        raise PreconditionViolated("invariant transforms need a cancellative monoid")
    if y0 not in Y.elements or not a.is_unit(y0):
        raise NotAUnit(f"{y0!r} is not a unit member of Y")
    neg = a.invert(y0)
    x0 = sumset(X, FinSet.singleton(a, y0))
    y0set = FinSet(a, [a.add(neg, y) for y in Y.elements])
    s1 = sumset_size(X, Y) == sumset_size(x0, y0set)
    s2 = len(X) == len(x0) and len(Y) == len(y0set)
    s3 = (
        gamma_set(X).value == gamma_set(x0).value
        and gamma_set(Y).value == gamma_set(y0set).value
    )
    if not (s1 and s2 and s3):
        raise InvariantBroken(
            f"transform by {y0!r} violated an invariance identity "
            f"(s1={s1}, s2={s2}, s3={s3})"
        )
    return InvariantTransform(x0, y0set, y0)


def normalize_pair(X: FinSet, Y: FinSet, kappa: int) -> InvariantTransform:
    """Pick the canonically smallest unit y0 of Y whose difference orders
    all reach `kappa`, and transform by it.

    The transformed Y contains the identity, and every non-identity member
    has order at least kappa.  Raises NoWitness exactly when kappa exceeds
    the constant of Y.
    """
    _same_ambient(X, Y)
    a = X.ambient
    if not (a.axioms.cancellative and a.axioms.has_identity):
        raise PreconditionViolated("normalization needs a cancellative monoid")
    if len(Y.elements) < 2:
        raise PreconditionViolated("normalization needs |Y| >= 2")
    units = units_of(Y).elements
    if not units:
        raise PreconditionViolated("normalization needs a unit in Y")
    chosen = next((y0 for y0 in units if _inf_order(a, Y.raw, y0) >= kappa), None)
    if chosen is None:
        raise NoWitness(f"no unit of Y reaches the order threshold {kappa}")
    t = invariant_transform(X, Y, chosen)
    ident = a.identity
    if ident not in t.y0.elements:
        raise InvariantBroken("normalized Y lost the identity")
    if _inf_order(a, t.y0.raw, ident) < kappa:
        raise InvariantBroken("normalized Y kept an element below the threshold")
    return t
