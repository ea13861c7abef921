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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import (
    BudgetExceeded,
    EmptySet,
    InvariantBroken,
    PreconditionViolated,
    WrongAmbient,
)
from .extnat import INF, ExtNat, encode_extnat
from .gamma import gamma_set, gamma_tuple, normalize_pair
from .setops import (
    DEFAULT_BUDGET,
    MEMO_SIZE,
    FinSet,
    _sorted_finset,
    generated,
    generated_sym,
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
def _closure_pair(S: FinSet, budget: int):
    """(closure of S, closure of S with unit inverses adjoined), or None
    when the closure is provably infinite."""
    a = S.ambient
    base = set(S.elements)
    for x in S.elements:
        if a.is_unit(x):
            base.add(a.invert(x))
    bound = a.gen_size_bound(base)
    if bound == INF:
        return None
    eff = max(budget, bound, len(base))
    plain = generated(S, eff)
    sym = generated_sym(S, eff)
    if not (plain.complete and sym.complete):
        raise BudgetExceeded("closure of the set did not stabilize within budget")
    return plain.closure, sym.closure


def _translate(S: FinSet, y) -> FinSet:
    """S + y for a single element y."""
    return sumset(S, FinSet.singleton(S.ambient, y))


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

    @property
    def all_hold(self) -> bool:
        return self.within_sumset and self.disjoint and self.size_bound and self.ledger

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


def davenport_transform(X: FinSet, Y: FinSet, z, budget: int = DEFAULT_BUDGET) -> DavenportPair:
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
    y_tilde = FinSet._from_canonical(a, tuple(tilde))
    y_keep = FinSet._from_canonical(a, tuple(keep))
    if not y_tilde.elements:
        raise InvariantBroken("gap element produced an empty split; z was not in X + 2Y")

    xy_keep = sumset(X, y_keep)
    z_minus = _z_minus_set(a, z, y_tilde)

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


def _z_minus_set(a, z, y_tilde: FinSet) -> FinSet:
    """{z} - Y~ by per-pair right division."""
    out = set()
    for y in y_tilde.elements:
        w = a.divide("right", z, y)
        if w is not None:
            out.add(w)
    return _sorted_finset(a, out)


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

    def to_json(self, ambient=None):
        enc = ambient.encode if ambient is not None else (lambda v: v)
        return {
            "bound_lhs": self.bound_lhs,
            "bound_rhs": self.bound_rhs,
            "branch_i": self.branch_i,
            "branch_ii": self.branch_ii,
            "structure_witness": (
                None if self.structure_witness is None else enc(self.structure_witness)
            ),
            "disjunction_holds": self.disjunction_holds,
            "gamma_y": encode_extnat(self.gamma_y),
            "x_size": self.x_size,
            "y_size": self.y_size,
        }


def check_theorem_main(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Evaluate branch (i), the additive bound
    |X+Y| >= |X| + min(gamma(Y), |Y|-1), and branch (ii), the structure
    identity X + 2Y = X + Y + y for some unit y of Y, and report both."""
    a = X.ambient
    _require(a.axioms.cancellative, "the dichotomy needs a cancellative ambient")
    _require(bool(Y.elements), "the dichotomy needs a nonempty Y")
    _require(is_commutative_generated(Y), "the dichotomy needs commutative <Y>")
    gam = gamma_set(Y, budget).value
    xy = sumset(X, Y)
    lhs = len(xy)
    rhs = len(X.elements) + int(min(gam, len(Y.elements) - 1))
    branch_i = lhs >= rhs
    x2y = sumset(xy, Y)
    witness = None
    for yb in units_of(Y).elements:
        if _translate(xy, yb) == x2y:
            witness = yb
            break
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
    )


# -- the structure equivalence ------------------------------------------------


@dataclass
class EquivalenceVerdict:
    """Agreement report for the three equivalent structure conditions."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    agree: bool
    counterwitness: Optional[dict] = None

    def to_json(self):
        return {
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "agree": self.agree,
            "counterwitness": self.counterwitness,
        }


def check_prop_equiv(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> EquivalenceVerdict:
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

    xy = sumset(X, Y)
    x2y = sumset(xy, Y)
    cond_i = any(_translate(xy, yb) == x2y for yb in units)
    cond_ii = all(_translate(xy, y) == x2y for y in Y.elements)
    cond_iii = all(_third_condition(X, Y, xy, yb, budget) for yb in units)
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


def _third_condition(X, Y, xy, yb, budget) -> bool:
    a = X.ambient
    neg = a.invert(yb)
    shifted = _sorted_finset(a, (a.add(y, neg) for y in Y.elements))
    if not X.elements:
        return True  # every side is empty
    closures = _closure_pair(shifted, budget)
    if closures is None:
        # <Y - yb> is provably infinite, so X + <Y - yb> cannot equal the
        # finite right side
        return False
    plain, sym = closures
    target = sumset(xy, FinSet.singleton(a, neg))  # X + Y - yb
    left = sumset(X, sym)
    mid = sumset(X, plain)
    return left == mid == target


# -- corollary checkers --------------------------------------------------------


@dataclass
class BoundReport:
    """One inequality evaluation: both sides, a holds flag, and a status
    of "checked", "hypothesis_not_met", or "unknown"."""

    holds: Optional[bool]
    lhs: Optional[int]
    rhs: Optional[int]
    status: str = "checked"
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "detail": self.detail,
        }


def check_cor_udt(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """|X + Y| >= min(gamma(Y), |X| + |Y| - 1) for nonempty X and
    commutative <Y> over a cancellative ambient."""
    nx = len(X.elements)
    if not nx:
        raise PreconditionViolated("the bound needs a nonempty X")
    a = X.ambient
    if not a.axioms.cancellative:
        raise PreconditionViolated("the bound needs a cancellative ambient")
    if not (a.axioms.commutative or is_commutative_generated(Y)):
        raise PreconditionViolated("the bound needs commutative <Y>")
    gam = gamma_set(Y, budget).value
    lhs = sumset_size(X, Y)
    ny = len(Y.elements)
    additive = nx + ny - 1
    rhs = additive if gam > additive else int(gam)
    return BoundReport(
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={
            "gamma_y": gam if gam != INF else "inf",
            "x_size": nx,
            "y_size": ny,
        },
    )


def check_cor_hs(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """|X u (X + Y)| >= |X| + min(gamma(Y u {0}), |Y| - [0 in Y]) whenever
    X u (X + Y) differs from X + <<Y>>.

    A failed hypothesis is reported as a status, not an error.  When <<Y>>
    is certified infinite and the left side is finite the hypothesis holds
    outright; if the closure cannot be settled within budget the status is
    "unknown" rather than a guess.
    """
    a = X.ambient
    _require(
        a.axioms.cancellative and a.axioms.has_identity,
        "this bound needs a cancellative monoid",
    )
    _require(is_commutative_generated(Y), "this bound needs commutative <Y>")
    ident = a.identity
    lhs_set = union(X, sumset(X, Y))
    lhs = len(lhs_set)

    y0set = union(Y, FinSet.singleton(a, ident))
    gam0 = gamma_set(y0set, budget).value
    indicator = 1 if ident in Y.elements else 0
    rhs = len(X.elements) + int(min(gam0, len(Y.elements) - indicator))
    detail = {
        "gamma_y_with_identity": encode_extnat(gam0),
        "identity_in_y": bool(indicator),
        "x_size": len(X.elements),
        "y_size": len(Y.elements),
    }

    if not X.elements:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    try:
        closures = _closure_pair(Y, budget)
    except BudgetExceeded:
        return BoundReport(None, lhs, rhs, "unknown", detail)
    if closures is None:
        hypothesis_met = True
        detail["closure"] = "infinite"
    else:
        sym = closures[1]
        hypothesis_met = lhs_set != sumset(X, sym)
        detail["closure_size"] = len(sym)
    if not hypothesis_met:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    return BoundReport(lhs >= rhs, lhs, rhs, "checked", detail)


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


def check_cor_zn(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Cyclic-group bound |X + Y| >= |X| + min(n / delta(Y), |Y| - 1),
    applicable when X + 2Y differs from every X + Y + y.

    Also verifies the internal identity gamma(Y) = n / delta(Y) for
    |Y| >= 2; a mismatch is an implementation bug and raises.
    """
    a = X.ambient
    if not isinstance(a, ZMod):
        raise WrongAmbient("this bound is specific to zmod ambients")
    _require(bool(X.elements) and bool(Y.elements), "the bound needs nonempty X and Y")
    n = a.n
    delta = delta_y(Y)
    detail = {"delta": delta, "modulus": n, "x_size": len(X.elements), "y_size": len(Y.elements)}
    if len(Y.elements) >= 2:
        gam = gamma_set(Y, budget).value
        detail["gamma_y"] = encode_extnat(gam)
        if gam != n // delta:
            raise InvariantBroken(
                f"gamma(Y) = {gam} disagrees with n/delta = {n // delta}"
            )
    xy = sumset(X, Y)
    x2y = sumset(xy, Y)
    hypothesis_met = any(_translate(xy, y) != x2y for y in Y.elements)
    lhs = len(xy)
    rhs = len(X.elements) + min(n // delta, len(Y.elements) - 1)
    if not hypothesis_met:
        return BoundReport(None, lhs, rhs, "hypothesis_not_met", detail)
    return BoundReport(lhs >= rhs, lhs, rhs, "checked", detail)


def check_weaker_bound(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """|X + Y| >= min(gamma(X + Y), |X| + |Y| - 1), the sumset-side bound."""
    a = X.ambient
    _require(a.axioms.cancellative, "the bound needs a cancellative ambient")
    _require(bool(X.elements) and bool(Y.elements), "the bound needs nonempty sets")
    xy = sumset(X, Y)
    gam = gamma_set(xy, budget).value
    rhs = int(min(gam, len(X.elements) + len(Y.elements) - 1))
    return BoundReport(
        holds=len(xy) >= rhs,
        lhs=len(xy),
        rhs=rhs,
        detail={"gamma_sumset": encode_extnat(gam)},
    )


def conjecture_holds(Xs, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """|X1 + ... + Xn| >= min(gamma(X1, ..., Xn), |X1| + ... + |Xn| + 1 - n),
    evaluated by folding the sumset left to right."""
    Xs = list(Xs)
    if not Xs:
        raise ValueError("the conjectured bound needs at least one set")
    a = Xs[0].ambient
    _require(a.axioms.cancellative, "the conjectured bound assumes cancellativity")
    acc = Xs[0]
    for X in Xs[1:]:
        acc = sumset(acc, X)
    gam = gamma_tuple(Xs, budget)
    additive = sum(len(X.elements) for X in Xs) + 1 - len(Xs)
    rhs = int(min(gam, additive))
    return BoundReport(
        holds=len(acc) >= rhs,
        lhs=len(acc),
        rhs=rhs,
        detail={
            "gamma_tuple": encode_extnat(gam),
            "sizes": [len(X.elements) for X in Xs],
            "additive_side": additive,
        },
    )


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
    outcome: str  # bound_certified | structure_case | budget_exhausted
    certificate: dict
    ambient: object

    def to_json(self):
        return {
            "steps": [s.to_json(self.ambient) for s in self.steps],
            "outcome": self.outcome,
            "certificate": self.certificate,
        }


def descent(X: FinSet, Y: FinSet, budget: int = DEFAULT_BUDGET) -> DescentTrace:
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
    gam_orig = gamma_set(Y, budget).value
    steps = []
    cur_x, cur_y = X, Y
    try:
        while True:
            k = sumset_size(cur_x, cur_y)
            gam = gamma_set(cur_y, budget).value
            kappa = k - len(cur_x.elements) + 1
            if kappa > gam:
                # k >= |X| + gamma(Y) here, so the additive bound holds
                # through gamma with nothing left to transform
                cert = _certificate(
                    "gamma_threshold", orig_xy, orig_sizes, gam_orig, steps, cur_y
                )
                return DescentTrace(steps, "bound_certified", cert, a)
            t = normalize_pair(cur_x, cur_y, kappa, budget)
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
            pair = davenport_transform(t.x0, t.y0, z, budget)
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
    except BudgetExceeded as exc:
        cert = _certificate("budget", orig_xy, orig_sizes, gam_orig, steps, cur_y)
        cert["error"] = str(exc)
        return DescentTrace(steps, "budget_exhausted", cert, a)


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
