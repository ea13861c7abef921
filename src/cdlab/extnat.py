"""Extended naturals: exact non-negative integers plus a single infinity.

Orders of elements and Cauchy-Davenport constants live in N + {INF}.
Finite values are always exact ints; INF is float infinity, which gives
the right total order (n < INF for every natural n) and the right min/max
behaviour without any wrapper class.  The conventions for empty bounds are
sup({}) = 0 and inf({}) = INF.
"""

from typing import Union

ExtNat = Union[int, float]

INF: ExtNat = float("inf")


def encode_extnat(v: ExtNat):
    """JSON form: plain int, or the string "inf"."""
    return "inf" if v == INF else int(v)


def decode_extnat(v) -> ExtNat:
    if v == "inf":
        return INF
    if isinstance(v, int) and v >= 0:
        return v
    raise ValueError(f"not an extended natural: {v!r}")
