"""Cauchy-Davenport constants of sets and tuples, and unit-shift transforms.

The constant of a set X is a sup-inf over the units of X of orders of
differences: sup over x0 in the units of X of inf over the other x in X of
ord(x - x0), with sup({}) = 0 and inf({}) = INF, and gamma(X) = |X| when
|X| <= 1.  Differences use x + (-x0), which is well defined because x0 is
a unit.  Values are exact; there is no estimation fallback.

An invariant transform replaces (X, Y) by (X + y0, -y0 + Y) for a unit
y0 of Y.  It preserves |X + Y|, both set sizes, and both constants; those
three facts are verified on every constructed transform.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

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
    DEFAULT_BUDGET,
    MEMO_SIZE,
    FinSet,
    _same_ambient,
    _sorted_finset,
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

    def to_json(self, ambient=None):
        enc = ambient.encode if ambient is not None else (lambda v: v)
        return {
            "value": encode_extnat(self.value),
            "witness": None if self.witness is None else enc(self.witness),
        }


@lru_cache(maxsize=MEMO_SIZE)
def gamma_set(X: FinSet, budget: int = DEFAULT_BUDGET) -> GammaValue:
    """The Cauchy-Davenport constant of a single set."""
    if len(X.elements) <= 1:
        return GammaValue(len(X.elements), None)
    a = X.ambient
    elems = X.elements
    best: ExtNat = 0
    wit = None
    for x0 in units_of(X).elements:
        neg = a.invert(x0)
        inner: ExtNat = INF
        for x in elems:
            if x == x0:
                continue
            o = ord_elem(a, a.add(x, neg), budget)
            if o < inner:
                inner = o
        if inner > best:
            best = inner
            wit = x0
    return GammaValue(best, wit)


def gamma_tuple(Xs, budget: int = DEFAULT_BUDGET) -> ExtNat:
    """Constant of a tuple: 0 when any component is empty, else the max of
    the component constants."""
    Xs = list(Xs)
    if not Xs:
        raise ValueError("gamma_tuple needs at least one set")
    first = Xs[0].ambient
    for X in Xs[1:]:
        if X.ambient != first:
            raise AmbientMismatch("tuple components live in different ambients")
    if any(not X.elements for X in Xs):
        return 0
    return max(gamma_set(X, budget).value for X in Xs)


def min_order(Y: FinSet, budget: int = DEFAULT_BUDGET) -> ExtNat:
    """Minimal order among the elements of a nonempty set."""
    if not Y.elements:
        raise EmptySet("min_order of the empty set")
    a = Y.ambient
    return min(ord_elem(a, y, budget) for y in Y.elements)


@dataclass(frozen=True)
class InvariantTransform:
    """The pair (X + shift, -shift + Y); invariant_transform verifies the
    three defining identities before it builds one."""

    x0: FinSet
    y0: FinSet
    shift: object
    direction: tuple = ("x0 = X + shift", "y0 = -shift + Y")

    def to_json(self):
        a = self.x0.ambient
        return {
            "x0": self.x0.to_json(),
            "y0": self.y0.to_json(),
            "shift": a.encode(self.shift),
            "direction": list(self.direction),
        }


def invariant_transform(X: FinSet, Y: FinSet, y0, budget: int = DEFAULT_BUDGET) -> InvariantTransform:
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
    y0set = _sorted_finset(a, {a.add(neg, y) for y in Y.elements})
    s1 = sumset_size(X, Y) == sumset_size(x0, y0set)
    s2 = len(X) == len(x0) and len(Y) == len(y0set)
    s3 = (
        gamma_set(X, budget).value == gamma_set(x0, budget).value
        and gamma_set(Y, budget).value == gamma_set(y0set, budget).value
    )
    if not (s1 and s2 and s3):
        raise InvariantBroken(
            f"transform by {y0!r} violated an invariance identity "
            f"(s1={s1}, s2={s2}, s3={s3})"
        )
    return InvariantTransform(x0, y0set, y0)


def normalize_pair(X: FinSet, Y: FinSet, kappa: int, budget: int = DEFAULT_BUDGET) -> InvariantTransform:
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
    chosen = None
    for y0 in units:
        neg = a.invert(y0)
        ok = True
        for y in Y.elements:
            if y == y0:
                continue
            if ord_elem(a, a.add(y, neg), budget) < kappa:
                ok = False
                break
        if ok:
            chosen = y0
            break
    if chosen is None:
        raise NoWitness(f"no unit of Y reaches the order threshold {kappa}")
    t = invariant_transform(X, Y, chosen, budget)
    ident = a.identity
    if ident not in t.y0.elements:
        raise InvariantBroken("normalized Y lost the identity")
    for y in t.y0.elements:
        if y != ident and ord_elem(a, y, budget) < kappa:
            raise InvariantBroken("normalized Y kept an element below the threshold")
    return t
