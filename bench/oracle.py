"""Definition-level recomputation of checker verdicts, apart from the library.

Groups are direct products of cyclic groups, given by their moduli, and
elements are tuples of residues.  Sumsets come from the double loop over
pairs, element orders from n/gcd (the lcm over the factors), the constant
gamma from its sup-inf definition, and closures from repeated sums.  Nothing
here imports cdlab, so a check stays valid when the library's method
changes.
"""

import math


def add(m, x, y):
    return tuple((a + b) % k for a, b, k in zip(x, y, m))


def neg(m, x):
    return tuple(-a % k for a, k in zip(x, m))


def order(m, x) -> int:
    return math.lcm(*(k // math.gcd(k, a) for a, k in zip(x, m)))


def sumset(m, xs, ys) -> set:
    return {add(m, x, y) for x in xs for y in ys}


def gamma(m, xs) -> int:
    """sup over x0 in X of inf over the other x in X of ord(x - x0); every
    element of a group is a unit, and gamma(X) = |X| when |X| <= 1."""
    xs = list(xs)
    if len(xs) <= 1:
        return len(xs)
    return max(
        min(order(m, add(m, x, neg(m, x0))) for x in xs if x != x0) for x0 in xs
    )


def closure(m, xs) -> set:
    """The subsemigroup generated by X: S, S + X, S + 2X, ... to a fixpoint."""
    total = set(xs)
    while True:
        grown = total | sumset(m, total, xs)
        if grown == total:
            return total
        total = grown


def theorem(m, X, Y) -> dict:
    lhs = len(sumset(m, X, Y))
    g = gamma(m, Y)
    rhs = len(X) + min(g, len(Y) - 1)
    xy = sumset(m, X, Y)
    x2y = sumset(m, xy, Y)
    branch_ii = any({add(m, z, y) for z in xy} == x2y for y in Y)
    return {
        "bound_lhs": lhs,
        "bound_rhs": rhs,
        "branch_i": lhs >= rhs,
        "branch_ii": branch_ii,
        "disjunction_holds": lhs >= rhs or branch_ii,
        "gamma_y": g,
    }


def udt(m, X, Y) -> dict:
    lhs = len(sumset(m, X, Y))
    rhs = min(gamma(m, Y), len(X) + len(Y) - 1)
    return {"holds": lhs >= rhs, "lhs": lhs, "rhs": rhs, "status": "checked"}


def hs(m, X, Y) -> dict:
    zero = tuple(0 for _ in m)
    union = set(X) | sumset(m, X, Y)
    lhs = len(union)
    indicator = 1 if zero in Y else 0
    rhs = len(X) + min(gamma(m, set(Y) | {zero}), len(Y) - indicator)
    met = bool(X) and union != sumset(m, X, closure(m, set(Y) | {neg(m, y) for y in Y}))
    return {
        "holds": lhs >= rhs if met else None,
        "lhs": lhs,
        "rhs": rhs,
        "status": "checked" if met else "hypothesis_not_met",
    }


def conjecture(m, *Xs) -> dict:
    acc = set(Xs[0])
    for X in Xs[1:]:
        acc = sumset(m, acc, X)
    g = 0 if any(not X for X in Xs) else max(gamma(m, X) for X in Xs)
    rhs = min(g, sum(len(X) for X in Xs) + 1 - len(Xs))
    return {"holds": len(acc) >= rhs, "lhs": len(acc), "rhs": rhs}


VERDICTS = {"theorem": theorem, "udt": udt, "hs": hs, "conjecture": conjecture}


def disagreement(checker: str, m, sets, verdict: dict):
    """The fields where the library's verdict differs from the definition,
    as {field: (library, oracle)}; empty when they agree."""
    want = VERDICTS[checker](m, *sets)
    return {k: (verdict.get(k), v) for k, v in want.items() if verdict.get(k) != v}
