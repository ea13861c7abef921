"""Executable checkers for the sumset lower bounds and their structure case.

Every checker evaluates both sides of its inequality directly on finite
sets and returns a verdict carrying the numbers, so a report can be audited
without rerunning anything.  The checkers are deterministic pure functions;
callers may run many of them concurrently.

The central engine is the Davenport transform: for a gap element
z in (X + 2Y) \\ (X + Y), split Y into the part Y~ that reaches z over
X + Y and the kept part Y_z = Y \\ Y~.  Four recorded facts make the
transform useful, the last one being the working inequality
|X + Y| + |Y_z| >= |X + Y_z| + |Y|.  The descent iterates normalization
and transform steps, shrinking Y while the ledger inequalities chain into
the additive lower bound on the original pair.
"""

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import (
    EmptySet,
    InvariantBroken,
    PreconditionViolated,
    WrongAmbient,
)
from .extnat import INF, ExtNat, encode_extnat
from .gamma import _gamma, gamma_set, gamma_tuple, normalize_pair
from .setops import (
    MEMO_SIZE,
    FinSet,
    _closure_walk,
    _elements,
    _raw_column,
    _raw_of,
    _raw_size,
    _raw_sumset,
    _same_ambient,
    difference,
    generated,
    generated_sym,  # unread: bench/tracer.py patches this binding by name
    intersection,
    is_commutative_generated,
    is_subset,
    sumset,
    sumset_size,
    union,
    units_of,
)
from .ambient import ZMod

__all__ = [
    "DavenportPair",
    "TheoremVerdict",
    "EquivalenceVerdict",
    "BoundReport",
    "DescentStep",
    "DescentTrace",
    "davenport_transform",
    "check_theorem_main",
    "check_prop_equiv",
    "check_cor_udt",
    "check_cor_hs",
    "delta_y",
    "check_cor_zn",
    "check_weaker_bound",
    "conjecture_holds",
    "descent",
]


def _require(cond: bool, why: str):
    if not cond:
        raise PreconditionViolated(why)


@lru_cache(maxsize=MEMO_SIZE)
def _closure(a, raw):
    """The closure <S> = <<S>> of the set S with raw set `raw` over `a`,
    or None when it is provably infinite; it follows the closure rule of
    setops._closure_walk."""
    walked = _closure_walk(FinSet._of(a, raw), generated)
    return None if walked is None else walked.closure


def _structure(a, xy, ys):
    """test(y) telling whether X + Y + y = X + 2Y, compared as raw sets,
    from the raw set xy of X + Y and the elements ys of Y; None when no y
    can pass.  Runners and slab entries share it.

    The ambient must be cancellative: translation by y is then injective,
    so no y passes unless |X + 2Y| = |X + Y|.
    """
    x2y = _raw_sumset(a, xy, ys)
    if _raw_size(x2y) != _raw_size(xy):
        return None
    return lambda y: _raw_sumset(a, xy, (y,)) == x2y


def _structure_test(X: FinSet, Y: FinSet):
    """(raw X + Y, its size, _structure of it)."""
    _same_ambient(X, Y)
    a = X.ambient
    xy = _raw_sumset(a, X.raw, Y.elements)
    return xy, _raw_size(xy), _structure(a, xy, Y.elements)


# -- Davenport transform -----------------------------------------------------


@dataclass
class DavenportPair:
    """The split of Y induced by a gap element z, with the four recorded
    transform facts and their numeric sides (witnesses only on failure)."""

    z: object
    y_tilde: FinSet
    y_keep: FinSet
    within_sumset: bool
    disjoint: bool
    size_bound: bool
    ledger: bool
    sides: dict
    witnesses: dict = field(default_factory=dict)

    FACTS = ("within_sumset", "disjoint", "size_bound", "ledger")

    @property
    def failed_facts(self) -> list:
        """The names of the transform facts that fail, in FACTS order."""
        return [f for f in self.FACTS if not getattr(self, f)]

    @property
    def all_hold(self) -> bool:
        return not self.failed_facts

    def to_json(self):
        enc = self.y_tilde.ambient.encode
        return {
            "z": enc(self.z),
            "y_tilde": self.y_tilde.to_json(),
            "y_keep": self.y_keep.to_json(),
            "within_sumset": self.within_sumset,
            "disjoint": self.disjoint,
            "size_bound": self.size_bound,
            "ledger": self.ledger,
            "sides": self.sides,
            "witnesses": self.witnesses,
        }


def davenport_transform(X: FinSet, Y: FinSet, z) -> DavenportPair:
    """Split Y at the gap element z and record the four transform facts.

    Requires a cancellative ambient, a commutative subsemigroup generated
    by Y, and z in (X + 2Y) \\ (X + Y).
    """
    a = X.ambient
    a.validate(z)
    _require(a.axioms.cancellative, "transform needs a cancellative ambient")
    _require(is_commutative_generated(Y), "transform needs commutative <Y>")
    xy = sumset(X, Y)
    x2y = sumset(xy, Y)
    _require(z in x2y and z not in xy, "z must lie in (X + 2Y) \\ (X + Y)")

    div = a.divide
    tilde, keep = [], []
    xyset = set(xy.elements)
    for y in Y.elements:
        w = div("right", z, y)
        (tilde if w is not None and w in xyset else keep).append(y)
    y_tilde = FinSet(a, tilde)
    y_keep = FinSet(a, keep)
    if not y_tilde.elements:
        raise InvariantBroken("gap element produced an empty split; z was not in X + 2Y")

    xy_keep = sumset(X, y_keep)
    z_minus = difference("right", FinSet.singleton(a, z), y_tilde)

    merged = union(xy_keep, z_minus)
    within = is_subset(merged, xy)
    overlap = intersection(xy_keep, z_minus)
    disjoint = not overlap.elements
    size_ok = len(z_minus) >= len(y_tilde)
    ledger_ok = len(xy) + len(y_keep) >= len(xy_keep) + len(Y)

    sides = {
        "xy_size": len(xy),
        "y_size": len(Y),
        "y_tilde_size": len(y_tilde),
        "y_keep_size": len(y_keep),
        "xy_keep_size": len(xy_keep),
        "z_minus_size": len(z_minus),
    }
    witnesses = {}
    enc = a.encode
    if not within:
        stray = next(e for e in merged.elements if e not in xyset)
        witnesses["outside_sumset"] = enc(stray)
    if not disjoint:
        witnesses["overlap"] = enc(overlap.elements[0])
    return DavenportPair(
        z, y_tilde, y_keep, within, disjoint, size_ok, ledger_ok, sides, witnesses
    )


# -- the dichotomy theorem ---------------------------------------------------


@dataclass
class TheoremVerdict:
    """Both branches of the lower-bound dichotomy for one pair (X, Y)."""

    bound_lhs: int
    bound_rhs: int
    branch_i: bool
    branch_ii: bool
    structure_witness: Optional[object]
    disjunction_holds: bool
    gamma_y: ExtNat
    x_size: int
    y_size: int
    ambient: object

    @property
    def holds(self) -> bool:
        return self.disjunction_holds

    def to_json(self):
        wit = self.structure_witness
        return {
            "bound_lhs": self.bound_lhs,
            "bound_rhs": self.bound_rhs,
            "branch_i": self.branch_i,
            "branch_ii": self.branch_ii,
            "structure_witness": None if wit is None else self.ambient.encode(wit),
            "disjunction_holds": self.disjunction_holds,
            "gamma_y": encode_extnat(self.gamma_y),
            "x_size": self.x_size,
            "y_size": self.y_size,
        }


def check_theorem_main(X: FinSet, Y: FinSet) -> TheoremVerdict:
    """Evaluate branch (i), the additive bound
    |X+Y| >= |X| + min(gamma(Y), |Y|-1), and branch (ii), the structure
    identity X + 2Y = X + Y + y for some unit y of Y, and report both."""
    gam, d = _theorem_rhs(Y)
    _, lhs, structure = _structure_test(X, Y)
    rhs = len(X.elements) + d
    branch_i = lhs >= rhs
    witness = None
    if structure is not None:
        witness = next((yb for yb in units_of(Y).elements if structure(yb)), None)
    branch_ii = witness is not None
    return TheoremVerdict(
        bound_lhs=lhs,
        bound_rhs=rhs,
        branch_i=branch_i,
        branch_ii=branch_ii,
        structure_witness=witness,
        disjunction_holds=branch_i or branch_ii,
        gamma_y=gam,
        x_size=len(X.elements),
        y_size=len(Y.elements),
        ambient=X.ambient,
    )


def _theorem_rhs(Y: FinSet):
    """The hypotheses of the dichotomy on Y, then (gamma(Y), d) with
    d = min(gamma(Y), |Y| - 1): branch (i) reads |X + Y| >= |X| + d."""
    _require(Y.ambient.axioms.cancellative, "the dichotomy needs a cancellative ambient")
    _require(bool(Y.elements), "the dichotomy needs a nonempty Y")
    _require(is_commutative_generated(Y), "the dichotomy needs commutative <Y>")
    gam = gamma_set(Y).value
    return gam, int(min(gam, len(Y.elements) - 1))


def slab_theorem_main(heads, tail):
    """Slab entry of check_theorem_main: the heads X (carrier masks, in
    order) where both branches fail against the tail (Y,).  Branch (i)
    reads |X + Y| off the column; a head failing it takes the structure
    test on its column entry, against the units of Y."""
    (Y,) = tail
    _, d = _theorem_rhs(Y)
    a, ys = Y.ambient, Y.elements
    units = units_of(Y).elements
    col = _raw_column(a, ys)
    pending = []
    for m in heads:
        xy = col[m]
        if xy.bit_count() < m.bit_count() + d:
            test = _structure(a, xy, ys)
            if test is None or not any(map(test, units)):
                pending.append(m)
    return pending


# -- the structure equivalence ------------------------------------------------


@dataclass
class EquivalenceVerdict:
    """Agreement report for the three equivalent structure conditions."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    agree: bool
    counterwitness: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.agree

    def to_json(self):
        return asdict(self)


def check_prop_equiv(X: FinSet, Y: FinSet) -> EquivalenceVerdict:
    """Evaluate all three structure conditions directly and report whether
    they agree:

      (i)   X + 2Y = X + Y + y for some unit y of Y;
      (ii)  X + 2Y = X + Y + y for all y in Y;
      (iii) for every unit y of Y, X + <<Y - y>> = X + <Y - y> = X + Y - y.
    """
    a = X.ambient
    _require(a.axioms.cancellative, "the equivalence needs a cancellative ambient")
    _require(is_commutative_generated(Y), "the equivalence needs commutative <Y>")
    units = units_of(Y).elements
    _require(bool(units), "the equivalence needs a unit in Y")

    xy, _, structure = _structure_test(X, Y)
    cond_i = structure is not None and any(structure(yb) for yb in units)
    cond_ii = structure is not None and all(structure(y) for y in Y.elements)
    cond_iii = all(_third_condition(a, X.raw, xy, Y.raw, yb) for yb in units)
    agree = cond_i == cond_ii == cond_iii
    witness = None
    if not agree:
        witness = {
            "cond_i": cond_i,
            "cond_ii": cond_ii,
            "cond_iii": cond_iii,
            "x": X.to_json(),
            "y": Y.to_json(),
        }
    return EquivalenceVerdict(cond_i, cond_ii, cond_iii, agree, witness)


def _third_condition(a, rx, xy, ry, yb) -> bool:
    """X + <Y - yb> = X + Y - yb, from the raw sets rx of X, xy of X + Y
    and ry of Y; <<Y - yb>> is <Y - yb> when that is finite."""
    if not rx:
        return True  # every side is empty
    neg = a.invert(yb)
    closure = _closure(a, _raw_sumset(a, ry, (neg,)))
    if closure is None:
        # <Y - yb> is provably infinite, so X + <Y - yb> cannot equal the
        # finite right side
        return False
    return _raw_sumset(a, rx, closure.elements) == _raw_sumset(a, xy, (neg,))


# -- corollary checkers --------------------------------------------------------


@dataclass
class BoundReport:
    """One inequality evaluation: both sides, a holds flag, and a status
    of "checked" or "hypothesis_not_met"."""

    holds: Optional[bool]
    lhs: Optional[int]
    rhs: Optional[int]
    status: str = "checked"
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def check_cor_udt(X: FinSet, Y: FinSet) -> BoundReport:
    """|X + Y| >= min(gamma(Y), |X| + |Y| - 1) for nonempty X and
    commutative <Y> over a cancellative ambient."""
    nx = len(X.elements)
    _require(nx > 0, "the bound needs a nonempty X")
    gam, d = _udt_rhs(Y)
    rhs = min(gam, nx + d)
    lhs = sumset_size(X, Y)
    return BoundReport(
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={
            "gamma_y": encode_extnat(gam),
            "x_size": nx,
            "y_size": len(Y.elements),
        },
    )


def _udt_rhs(Y: FinSet):
    """The hypotheses of check_cor_udt on Y, then (gamma(Y), d) with
    d = |Y| - 1: the bound reads |X + Y| >= min(gamma(Y), |X| + d)."""
    _require(Y.ambient.axioms.cancellative, "the bound needs a cancellative ambient")
    _require(is_commutative_generated(Y), "the bound needs commutative <Y>")
    return gamma_set(Y).value, len(Y.elements) - 1


def slab_cor_udt(heads, tail):
    """Slab entry of check_cor_udt: the heads X (carrier masks, in order)
    that fail the bound against the tail (Y,) or that it skips (empty X)."""
    (Y,) = tail
    a = Y.ambient
    # need[k] is the right side for |X| = k; nothing meets need[0]
    gam, d = _udt_rhs(Y)
    need = [min(gam, k + d) for k in range(a.carrier_size + 1)]
    need[0] = INF
    col = _raw_column(a, Y.elements)
    return [m for m in heads if col[m].bit_count() < need[m.bit_count()]]


def check_cor_hs(X: FinSet, Y: FinSet) -> BoundReport:
    """|X u (X + Y)| >= |X| + min(gamma(Y u {0}), |Y| - [0 in Y]) whenever
    X u (X + Y) differs from X + <<Y>>.

    A failed hypothesis is reported as a status, not an error.  When <<Y>>
    is certified infinite and the left side is finite the hypothesis holds
    outright.
    """
    y0set, gam0, d = _hs_rhs(Y)
    _same_ambient(X, Y)
    a = X.ambient
    rx = X.raw
    lhs_raw = _raw_sumset(a, rx, y0set.elements)  # X u (X + Y) = X + (Y u {0})
    lhs = _raw_size(lhs_raw)
    rhs = len(X.elements) + d
    detail = {
        "gamma_y_with_identity": encode_extnat(gam0),
        "identity_in_y": a.identity in Y.elements,
        "x_size": len(X.elements),
        "y_size": len(Y.elements),
    }

    if not X.elements:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    closure = _closure(a, Y.raw)  # <<Y>>, which is <Y> when finite
    if closure is None:
        hypothesis_met = True
        detail["closure"] = "infinite"
    else:
        hypothesis_met = lhs_raw != _raw_sumset(a, rx, closure.elements)
        detail["closure_size"] = len(closure)
    if not hypothesis_met:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    return BoundReport(lhs >= rhs, lhs, rhs, "checked", detail)


def _hs_rhs(Y: FinSet):
    """The hypotheses of check_cor_hs on Y, then (Y u {0}, gamma(Y u {0}), d)
    with d = min(gamma(Y u {0}), |Y| - [0 in Y]): the bound reads
    |X u (X + Y)| >= |X| + d."""
    a = Y.ambient
    _require(
        a.axioms.cancellative and a.axioms.has_identity,
        "this bound needs a cancellative monoid",
    )
    _require(is_commutative_generated(Y), "this bound needs commutative <Y>")
    ident = a.identity
    y0set = FinSet._of(a, Y.raw | _raw_of(a, (ident,)))
    gam0 = gamma_set(y0set).value
    return y0set, gam0, int(min(gam0, len(Y.elements) - (ident in Y.elements)))


def slab_cor_hs(heads, tail):
    """Slab entry of check_cor_hs: the heads X (carrier masks, in order)
    that meet the hypothesis and fail the bound against the tail (Y,).
    The closure of Y over a finite ambient settles, and <<Y>> = <Y>."""
    (Y,) = tail
    a = Y.ambient
    y0set, _, d = _hs_rhs(Y)
    lhs_col = _raw_column(a, y0set.elements)  # X u (X + Y) = X + (Y u {0})
    hyp_col = _raw_column(a, _closure(a, Y.raw).elements)  # X + <<Y>>
    return [
        m
        for m in heads
        if lhs_col[m] != hyp_col[m] and lhs_col[m].bit_count() < m.bit_count() + d
    ]


def delta_y(Y: FinSet) -> int:
    """min over y0 in Y of max over other y in Y of gcd(n, y - y0), on
    residues modulo n; equals 1 for singletons.  gcd(n, y - y0) does not
    depend on the chosen integer lifts."""
    a = Y.ambient
    if not isinstance(a, ZMod):
        raise WrongAmbient("delta is defined over zmod ambients")
    if not Y.elements:
        raise EmptySet("delta of the empty set")
    if len(Y.elements) == 1:
        return 1
    n = a.n
    elems = Y.elements
    return min(
        max(math.gcd(n, y - y0) for y in elems if y != y0) for y0 in elems
    )


def check_cor_zn(X: FinSet, Y: FinSet) -> BoundReport:
    """Cyclic-group bound |X + Y| >= |X| + min(n / delta(Y), |Y| - 1),
    applicable when X + 2Y differs from every X + Y + y.

    Also verifies the internal identity gamma(Y) = n / delta(Y) for
    |Y| >= 2; a mismatch is an implementation bug and raises.
    """
    a = X.ambient
    if not isinstance(a, ZMod):
        raise WrongAmbient("this bound is specific to zmod ambients")
    _require(bool(X.elements) and bool(Y.elements), "the bound needs nonempty X and Y")
    _, lhs, structure = _structure_test(X, Y)
    n = a.n
    delta = delta_y(Y)
    detail = {"delta": delta, "modulus": n, "x_size": len(X.elements), "y_size": len(Y.elements)}
    if len(Y.elements) >= 2:
        gam = gamma_set(Y).value
        detail["gamma_y"] = encode_extnat(gam)
        if gam != n // delta:
            raise InvariantBroken(
                f"gamma(Y) = {gam} disagrees with n/delta = {n // delta}"
            )
    hypothesis_met = structure is None or not all(structure(y) for y in Y.elements)
    rhs = len(X.elements) + min(n // delta, len(Y.elements) - 1)
    if not hypothesis_met:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    return BoundReport(lhs >= rhs, lhs, rhs, "checked", detail)


def check_weaker_bound(X: FinSet, Y: FinSet) -> BoundReport:
    """|X + Y| >= min(gamma(X + Y), |X| + |Y| - 1), the sumset-side bound."""
    a = X.ambient
    _require(a.axioms.cancellative, "the bound needs a cancellative ambient")
    _require(bool(X.elements) and bool(Y.elements), "the bound needs nonempty sets")
    _same_ambient(X, Y)
    xy = _raw_sumset(a, X.raw, Y.elements)
    gam = _gamma(a, xy).value
    lhs = _raw_size(xy)
    rhs = int(min(gam, len(X.elements) + len(Y.elements) - 1))
    return BoundReport(
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"gamma_sumset": encode_extnat(gam)},
    )


def conjecture_holds(Xs) -> BoundReport:
    """|X1 + ... + Xn| >= min(gamma(X1, ..., Xn), |X1| + ... + |Xn| + 1 - n),
    evaluated by folding the sumset left to right."""
    Xs = list(Xs)
    if not Xs:
        raise ValueError("the conjectured bound needs at least one set")
    a = Xs[0].ambient
    _conjecture_require(a)
    gam = gamma_tuple(Xs)  # raises AmbientMismatch before the fold
    lhs = _raw_size(_fold(a, Xs))
    sizes = [len(X.elements) for X in Xs]
    additive = sum(sizes) + 1 - len(sizes)
    rhs = additive if additive < gam else gam  # an int: INF tops every additive side
    detail = {"gamma_tuple": encode_extnat(gam), "sizes": sizes, "additive_side": additive}
    return BoundReport(lhs >= rhs, lhs, rhs, "checked", detail)


def _conjecture_require(a):
    """The hypothesis of conjecture_holds, on the ambient."""
    _require(a.axioms.cancellative, "the conjectured bound assumes cancellativity")


def _fold(a, Xs):
    """X1 + ... + Xn as a raw set, folded left to right."""
    acc = Xs[0].raw
    for X in Xs[1:]:
        acc = _raw_sumset(a, acc, X.elements)
    return acc


def slab_conjecture(heads, tail):
    """Slab entry of conjecture_holds: the heads X1 (carrier masks, in
    order) that fail the bound with the tail X2, ..., Xn, n >= 2.  One
    column gives X1 + S for the folded tail S = X2 + ... + Xn.  A head
    whose sumset reaches the additive side needs no gamma; the others
    compare it with max(gamma(X1), gamma of the tail parts), reading
    gamma(X1) from the gamma memo by its mask; gamma of the tuple is 0
    when a set is empty.  A one-set tail is its own fold, whose
    elements it already lists."""
    a = tail[0].ambient
    _conjecture_require(a)
    if not all(tail):
        return []  # gamma of the tuple is 0, which every sumset meets
    ys = tail[0].elements if len(tail) == 1 else _elements(a, _fold(a, tail))
    col = _raw_column(a, ys)
    base = sum(len(X.elements) for X in tail) - len(tail)
    gam = max(gamma_set(X).value for X in tail)
    return [
        m
        for m in heads
        if m
        and (c := col[m].bit_count()) < m.bit_count() + base
        and (c < gam or c < _gamma(a, m).value)
    ]


# -- certificate-producing descent ---------------------------------------------


@dataclass
class DescentStep:
    """One normalize-and-transform round, with its inequality ledger."""

    x_size: int
    y_size: int
    sumset_size: int
    kappa: int
    shift: object
    z: object
    pair: DavenportPair
    ledger_ok: bool

    def to_json(self, ambient):
        enc = ambient.encode
        return {
            "x_size": self.x_size,
            "y_size": self.y_size,
            "sumset_size": self.sumset_size,
            "kappa": self.kappa,
            "shift": enc(self.shift),
            "z": enc(self.z),
            "pair": self.pair.to_json(),
            "ledger_ok": self.ledger_ok,
        }


@dataclass
class DescentTrace:
    """Trace of the descent: the recorded steps, the terminal outcome, and
    the chained certificate for the original pair."""

    steps: list
    outcome: str  # bound_certified | structure_case
    certificate: dict
    ambient: object

    def to_json(self):
        return {
            "steps": [s.to_json(self.ambient) for s in self.steps],
            "outcome": self.outcome,
            "certificate": self.certificate,
        }


def descent(X: FinSet, Y: FinSet) -> DescentTrace:
    """Iterate normalization and Davenport transforms, shrinking Y.

    Each round: translate the pair so the identity sits in Y and every
    other member has order at least kappa = |X+Y| - |X| + 1 (possible
    whenever that threshold is at most gamma(Y); when it is not, the
    additive bound already holds through gamma and the descent stops
    certified).  If the translated pair satisfies X + 2Y inside X + Y the
    outcome is the structure case, witnessed by the identity.  Otherwise
    the canonically smallest gap element drives a transform, the ledger
    inequality |X+Y| + |Y_z| >= |X+Y_z| + |Y| is recorded, and the pair
    recurses on (X, Y_z) while |Y_z| >= 2.  |Y| strictly decreases, so the
    ledger chain certifies |X+Y| >= |X| + |Y| - |Y_final| on exit.
    """
    a = X.ambient
    _require(
        a.axioms.cancellative and a.axioms.has_identity,
        "the descent needs a cancellative monoid",
    )
    _require(bool(X.elements), "the descent needs a nonempty X")
    _require(len(Y.elements) >= 2, "the descent needs |Y| >= 2")
    _require(is_commutative_generated(Y), "the descent needs commutative <Y>")
    _require(bool(units_of(Y).elements), "the descent needs a unit in Y")

    orig_xy = sumset_size(X, Y)
    orig_sizes = (len(X.elements), len(Y.elements))
    gam_orig = gamma_set(Y).value
    steps = []
    cur_x, cur_y = X, Y
    while True:
        k = sumset_size(cur_x, cur_y)
        gam = gamma_set(cur_y).value
        kappa = k - len(cur_x.elements) + 1
        if kappa > gam:
            # k >= |X| + gamma(Y) here, so the additive bound holds
            # through gamma with nothing left to transform
            cert = _certificate(
                "gamma_threshold", orig_xy, orig_sizes, gam_orig, steps, cur_y
            )
            return DescentTrace(steps, "bound_certified", cert, a)
        t = normalize_pair(cur_x, cur_y, kappa)
        xy0 = sumset(t.x0, t.y0)
        x2y0 = sumset(xy0, t.y0)
        gap = [z for z in x2y0.elements if z not in xy0]
        if not gap:
            cert = _certificate(
                "structure_case", orig_xy, orig_sizes, gam_orig, steps, cur_y
            )
            cert["structure_witness"] = a.encode(a.identity)
            return DescentTrace(steps, "structure_case", cert, a)
        z = gap[0]
        pair = davenport_transform(t.x0, t.y0, z)
        ledger_ok = pair.ledger
        if len(pair.y_keep) >= len(t.y0):
            raise InvariantBroken("transform failed to shrink Y")
        steps.append(
            DescentStep(
                x_size=len(cur_x.elements),
                y_size=len(cur_y.elements),
                sumset_size=k,
                kappa=kappa,
                shift=t.shift,
                z=z,
                pair=pair,
                ledger_ok=ledger_ok,
            )
        )
        cur_x, cur_y = t.x0, pair.y_keep
        if len(cur_y.elements) < 2:
            cert = _certificate(
                "chain_bottom", orig_xy, orig_sizes, gam_orig, steps, cur_y
            )
            return DescentTrace(steps, "bound_certified", cert, a)


def _certificate(reason, orig_xy, orig_sizes, gam_orig, steps, final_y) -> dict:
    x_size, y_size = orig_sizes
    chained_rhs = x_size + y_size - len(final_y.elements)
    cert = {
        "reason": reason,
        "original_sumset_size": orig_xy,
        "original_x_size": x_size,
        "original_y_size": y_size,
        "gamma_y": encode_extnat(gam_orig),
        "final_y_size": len(final_y.elements),
        "steps_taken": len(steps),
        "chained_lhs": orig_xy,
        "chained_rhs": chained_rhs,
        "additive_bound_rhs": x_size + int(min(gam_orig, y_size - 1)),
    }
    return cert
