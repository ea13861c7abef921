"""Finitely-described semigroups and the element arithmetic they interpret.

An Ambient bundles a carrier representation with an associative binary
operation and a report of the axioms it satisfies.  Elements are plain
Python values (residues, index ints, tuples of ints, words, tuples of
factor elements); they carry no back-reference to their ambient, so every
operation takes the ambient explicitly.  All built-in kinds are immutable
after construction and safe to share across workers.  What an ambient
derives from itself (its description text and hash, its carrier, index map
and index-addition table, a Cayley table's unit map) is a cached_property,
computed on first read and kept with the ambient.

Built-in kinds:

    zmod(n)          integers modulo n, a finite cyclic group
    cayley(table)    a finite semigroup given by its multiplication table,
                     axioms decided by exhaustive scan at construction
    int_lattice(d)   Z^d under vector addition (a group)
    nat_lattice(d)   N^d under vector addition (a cancellative monoid)
    free_monoid(A)   words over a finite alphabet under concatenation
    product(...)     the direct product of any of the above
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _cartesian
from typing import Optional

from .errors import (
    ElementAmbientMismatch,
    MalformedDescription,
    NonAssociativeTable,
    NonCancellativeAmbiguity,
)
from .extnat import INF

# Finite ambients at or below this carrier size build an index-addition
# table on demand so set arithmetic can run on bit masks.
TABLE_CAP = 512


@dataclass(frozen=True)
class AxiomReport:
    """Which semigroup axioms hold, decided exhaustively for table kinds
    and analytically for the rest."""

    associative: bool
    cancellative: bool
    has_identity: bool
    identity: object
    commutative: bool
    finite_order: Optional[int]  # carrier size when finite, else None


class Ambient:
    """Base class; concrete kinds set `axioms` at construction and
    implement the element arithmetic."""

    kind = "abstract"
    axioms: AxiomReport

    # -- identification ------------------------------------------------

    def describe(self) -> dict:
        raise NotImplementedError

    @cached_property
    def _ckey(self) -> str:
        """The canonical description text: two ambients are equal, and hash
        alike, exactly when their descriptions are."""
        return json.dumps(self.describe(), sort_keys=True)

    @cached_property
    def _hash(self) -> int:
        return hash(self._ckey)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ambient) and self._ckey == other._ckey

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"

    # -- element arithmetic ---------------------------------------------

    def add(self, x, y):
        raise NotImplementedError

    def divide(self, side: str, x, y):
        """Unique z with z+y=x (side="right") or y+z=x (side="left"),
        or None when no such z exists."""
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        raise NotImplementedError

    def invert(self, x):
        """Two-sided inverse of x, or None when x is not a unit."""
        raise NotImplementedError

    def validate(self, x) -> None:
        raise NotImplementedError

    def sort_key(self, x):
        """Total order key giving every set one canonical serialization."""
        raise NotImplementedError

    # -- carrier and finiteness ------------------------------------------

    @property
    def identity(self):
        return self.axioms.identity

    @property
    def carrier_size(self) -> Optional[int]:
        return self.axioms.finite_order

    @property
    def all_units(self) -> bool:
        return False

    def carrier(self) -> tuple:
        """All elements, in canonical order.  Finite ambients only."""
        if self.carrier_size is None:
            raise ValueError(f"{self.kind} ambient has no finite carrier")
        return self._carrier

    @cached_property
    def _carrier(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.carrier())}

    def index_of(self, x) -> int:
        return self._index[x]

    @cached_property
    def _table(self) -> list:
        elems = self.carrier()
        idx = self.index_of
        return [[idx(self.add(a, b)) for b in elems] for a in elems]

    def index_table(self):
        """Addition on carrier indices, built on first use; callers ask for
        it only over finite carriers of at most TABLE_CAP elements."""
        return self._table

    # -- analytic order rules ---------------------------------------------

    def ord_is_infinite(self, x) -> bool:
        """True when the cyclic orbit of x is provably infinite."""
        return False

    def gen_size_bound(self, elems):
        """Upper bound on the size of the subsemigroup generated by elems;
        INF when that subsemigroup is provably infinite."""
        if self.carrier_size is not None:
            return self.carrier_size
        elems = list(elems)
        if not elems:
            return 0
        if any(self.ord_is_infinite(x) for x in elems):
            return INF
        return 1  # only identity-like generators remain for built-ins

    # -- serialization ---------------------------------------------------

    def encode(self, x):
        return x

    def decode(self, v):
        self.validate(v)
        return v


class ZMod(Ambient):
    """Integers modulo n.  Elements are residues in [0, n)."""

    kind = "zmod"

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedDescription(f"zmod modulus must be a positive int, got {n!r}")
        self.n = n
        self.axioms = AxiomReport(
            associative=True,
            cancellative=True,
            has_identity=True,
            identity=0,
            commutative=True,
            finite_order=n,
        )

    def describe(self):
        return {"kind": "zmod", "n": self.n}

    def add(self, x, y):
        return (x + y) % self.n

    def divide(self, side, x, y):
        # commutative group: both sides solve to x - y
        return (x - y) % self.n

    def is_unit(self, x):
        return True

    def invert(self, x):
        return (-x) % self.n

    @property
    def all_units(self):
        return True

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise ElementAmbientMismatch(f"{x!r} is not a residue mod {self.n}")

    def sort_key(self, x):
        return x

    @cached_property
    def _carrier(self):
        return tuple(range(self.n))

    def index_of(self, x):
        return x


class Cayley(Ambient):
    """A finite semigroup given by its full multiplication table.

    The table is an n by n matrix of indices, n at most TABLE_CAP; entry
    [i][j] is the index of element i + element j.  Associativity is
    verified exhaustively at construction (all n**3 triples) and a
    violating triple is reported; cancellativity, identity, commutativity
    and units are decided by scans over the same table.
    """

    kind = "cayley"

    def __init__(self, table, labels=None):
        self.table = self._check_shape(table)
        n = len(self.table)
        if labels is None:
            labels = [str(i) for i in range(n)]
        elif not isinstance(labels, (list, tuple)):
            raise MalformedDescription(f"cayley labels must be a list, got {labels!r}")
        if len(labels) != n:
            raise MalformedDescription(
                f"{len(labels)} labels for a table of size {n}"
            )
        if not all(isinstance(s, str) for s in labels) or len(set(labels)) != n:
            raise MalformedDescription(
                f"cayley labels must be distinct strings, got {labels!r}"
            )
        self.labels = tuple(labels)
        tab = self.table
        for i in range(n):
            ti = tab[i]
            for j in range(n):
                tij = tab[ti[j]]
                tj = tab[j]
                for k in range(n):
                    if tij[k] != ti[tj[k]]:
                        raise NonAssociativeTable((i, j, k))
        rng = set(range(n))
        cancellative = all(set(row) == rng for row in tab) and all(
            {tab[i][j] for i in range(n)} == rng for j in range(n)
        )
        identity = None
        for e in range(n):
            if all(tab[e][x] == x == tab[x][e] for x in range(n)):
                identity = e
                break
        commutative = all(
            tab[i][j] == tab[j][i] for i in range(n) for j in range(i)
        )
        self.axioms = AxiomReport(
            associative=True,
            cancellative=cancellative,
            has_identity=identity is not None,
            identity=identity,
            commutative=commutative,
            finite_order=n,
        )

    @staticmethod
    def _check_shape(table):
        if not isinstance(table, (list, tuple)) or not table:
            raise MalformedDescription("cayley table must be a nonempty matrix")
        n = len(table)
        if n > TABLE_CAP:
            raise MalformedDescription(f"cayley table of size {n} exceeds {TABLE_CAP}")
        rows = []
        for row in table:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise MalformedDescription("cayley table must be square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise MalformedDescription(
                        f"table entry {v!r} out of range [0, {n})"
                    )
            rows.append(tuple(row))
        return tuple(rows)

    def describe(self):
        return {
            "kind": "cayley",
            "labels": list(self.labels),
            "table": [list(r) for r in self.table],
        }

    def add(self, x, y):
        return self.table[x][y]

    def divide(self, side, x, y):
        n = len(self.table)
        if side == "right":
            sols = [z for z in range(n) if self.table[z][y] == x]
        else:
            sols = [z for z in range(n) if self.table[y][z] == x]
        if not sols:
            return None
        if len(sols) > 1:
            raise NonCancellativeAmbiguity(
                f"{len(sols)} solutions for {side} division of {x} by {y}"
            )
        return sols[0]

    @cached_property
    def _units(self) -> dict:
        """Each unit's inverse, by index."""
        n = len(self.table)
        e = self.axioms.identity
        units = {}
        if e is not None:
            for x in range(n):
                for w in range(n):
                    if self.table[x][w] == e and self.table[w][x] == e:
                        units[x] = w
                        break
        return units

    def is_unit(self, x):
        return x in self._units

    def invert(self, x):
        return self._units.get(x)

    @property
    def all_units(self):
        return len(self._units) == len(self.table)

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < len(self.table):
            raise ElementAmbientMismatch(f"{x!r} is not a table index")

    def sort_key(self, x):
        return x

    @cached_property
    def _carrier(self):
        return tuple(range(len(self.table)))

    def index_of(self, x):
        return x

    def index_table(self):
        return self.table


class IntLattice(Ambient):
    """Z^dim under componentwise addition; every element is a unit."""

    kind = "int_lattice"

    def __init__(self, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise MalformedDescription(f"dimension must be a positive int, got {dim!r}")
        self.dim = dim
        zero = (0,) * dim
        self.axioms = AxiomReport(True, True, True, zero, True, None)

    def describe(self):
        return {"kind": self.kind, "dim": self.dim}

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def divide(self, side, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def is_unit(self, x):
        return True

    def invert(self, x):
        return tuple(-a for a in x)

    @property
    def all_units(self):
        return True

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.dim
            or not all(isinstance(a, int) and not isinstance(a, bool) for a in x)
        ):
            raise ElementAmbientMismatch(f"{x!r} is not an int vector of dim {self.dim}")

    def sort_key(self, x):
        return x

    def ord_is_infinite(self, x):
        return any(a != 0 for a in x)

    def encode(self, x):
        return list(x)

    def decode(self, v):
        if not isinstance(v, list):
            raise ElementAmbientMismatch(f"{v!r} is not a vector encoding")
        x = tuple(v)
        self.validate(x)
        return x


class NatLattice(IntLattice):
    """N^dim under componentwise addition; only the origin is a unit."""

    kind = "nat_lattice"

    def divide(self, side, x, y):
        z = tuple(a - b for a, b in zip(x, y))
        return z if all(a >= 0 for a in z) else None

    def is_unit(self, x):
        return all(a == 0 for a in x)

    def invert(self, x):
        return x if self.is_unit(x) else None

    @property
    def all_units(self):
        return False

    def validate(self, x):
        super().validate(x)
        if any(a < 0 for a in x):
            raise ElementAmbientMismatch(f"{x!r} has a negative coordinate")


class FreeMonoid(Ambient):
    """Words over a finite alphabet under concatenation.

    Symbols are single characters so that words serialize unambiguously as
    strings.  Only the empty word is a unit.  Words sort by length, then
    lexicographically.
    """

    kind = "free_monoid"

    def __init__(self, alphabet):
        syms = tuple(alphabet)
        if any(not isinstance(s, str) or len(s) != 1 for s in syms):
            raise MalformedDescription("alphabet symbols must be single characters")
        if len(set(syms)) != len(syms):
            raise MalformedDescription("alphabet symbols must be distinct")
        self.alphabet = syms
        self._symset = frozenset(syms)
        self.axioms = AxiomReport(
            associative=True,
            cancellative=True,
            has_identity=True,
            identity="",
            commutative=len(syms) <= 1,
            finite_order=1 if not syms else None,
        )

    def describe(self):
        return {"kind": "free_monoid", "alphabet": list(self.alphabet)}

    def add(self, x, y):
        return x + y

    def divide(self, side, x, y):
        if side == "right":  # z + y = x: strip the suffix y
            if y and not x.endswith(y):
                return None
            return x[: len(x) - len(y)]
        if y and not x.startswith(y):
            return None
        return x[len(y):]

    def is_unit(self, x):
        return x == ""

    def invert(self, x):
        return "" if x == "" else None

    @property
    def all_units(self):
        return not self.alphabet  # the empty alphabet: the trivial group

    def validate(self, x):
        if not isinstance(x, str) or not self._symset.issuperset(x):
            raise ElementAmbientMismatch(f"{x!r} is not a word over {self.alphabet}")

    def sort_key(self, x):
        return (len(x), x)

    def ord_is_infinite(self, x):
        return x != ""

    @cached_property
    def _carrier(self):
        return ("",)  # empty alphabet only


class Product(Ambient):
    """Direct product of ambients; axioms compose componentwise."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors or not all(isinstance(f, Ambient) for f in factors):
            raise MalformedDescription("product needs at least one ambient factor")
        self.factors = factors
        axs = [f.axioms for f in factors]
        has_id = all(a.has_identity for a in axs)
        sizes = [a.finite_order for a in axs]
        finite = math.prod(sizes) if None not in sizes else None
        self.axioms = AxiomReport(
            associative=True,
            cancellative=all(a.cancellative for a in axs),
            has_identity=has_id,
            identity=tuple(a.identity for a in axs) if has_id else None,
            commutative=all(a.commutative for a in axs),
            finite_order=finite,
        )

    def describe(self):
        return {"kind": "product", "factors": [f.describe() for f in self.factors]}

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def divide(self, side, x, y):
        out = []
        for f, a, b in zip(self.factors, x, y):
            z = f.divide(side, a, b)
            if z is None:
                return None
            out.append(z)
        return tuple(out)

    def is_unit(self, x):
        return all(f.is_unit(a) for f, a in zip(self.factors, x))

    def invert(self, x):
        out = []
        for f, a in zip(self.factors, x):
            w = f.invert(a)
            if w is None:
                return None
            out.append(w)
        return tuple(out)

    @property
    def all_units(self):
        return all(f.all_units for f in self.factors)

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise ElementAmbientMismatch(
                f"{x!r} is not a tuple of {len(self.factors)} factor elements"
            )
        for f, a in zip(self.factors, x):
            f.validate(a)

    def sort_key(self, x):
        return tuple(f.sort_key(a) for f, a in zip(self.factors, x))

    def gen_size_bound(self, elems):
        elems = list(elems)
        if not elems:
            return 0
        bound = 1
        for i, f in enumerate(self.factors):
            b = f.gen_size_bound({x[i] for x in elems})
            if b == INF:
                return INF
            bound *= max(b, 1)
        return bound

    @cached_property
    def _carrier(self):
        return tuple(_cartesian(*(f.carrier() for f in self.factors)))

    @cached_property
    def _steps(self):
        """How each carrier element y translates carrier masks when every
        factor is zmod, else None: one (up, hi, down, lo) per factor j with
        y_j != 0, and m + y_j in factor j is (m << up) & hi | (m >> down) & lo.
        The carrier is row-major, so with factor j's stride s and size n a
        digit below n - y_j moves up by y_j s, to the indices hi whose j-th
        digit is at least y_j, and the others wrap down by (n - y_j) s, to
        the indices lo whose j-th digit is below y_j."""
        if not all(type(f) is ZMod for f in self.factors):
            return None
        carrier = self.carrier()
        full = (1 << len(carrier)) - 1
        stride = len(carrier)
        per_factor = []
        for j, f in enumerate(self.factors):
            n = f.n
            stride //= n
            at = [0] * n  # the indices whose j-th digit is d, by d
            for i, x in enumerate(carrier):
                at[x[j]] |= 1 << i
            steps = [None]
            hi = full
            for v in range(1, n):
                hi &= ~at[v - 1]
                steps.append((v * stride, hi, (n - v) * stride, full & ~hi))
            per_factor.append(steps)
        return {
            x: tuple([steps[d] for steps, d in zip(per_factor, x) if d])
            for x in carrier
        }

    def encode(self, x):
        return [f.encode(a) for f, a in zip(self.factors, x)]

    def decode(self, v):
        if not isinstance(v, list) or len(v) != len(self.factors):
            raise ElementAmbientMismatch(f"{v!r} is not a product element encoding")
        return tuple(f.decode(a) for f, a in zip(self.factors, v))


# each kind's description keys besides "kind", and its builder
_KINDS = {
    "zmod": ({"n"}, lambda d: ZMod(_field(d, "n"))),
    "cayley": ({"table", "labels"}, lambda d: Cayley(_field(d, "table"), d.get("labels"))),
    "int_lattice": ({"dim"}, lambda d: IntLattice(_field(d, "dim"))),
    "nat_lattice": ({"dim"}, lambda d: NatLattice(_field(d, "dim"))),
    "free_monoid": ({"alphabet"}, lambda d: FreeMonoid(_field(d, "alphabet", list))),
    "product": (
        {"factors"},
        lambda d: Product(make_ambient(f) for f in _field(d, "factors", list)),
    ),
}


def _field(desc, name, kind=object):
    if name not in desc:
        raise MalformedDescription(f"description is missing {name!r}: {desc!r}")
    value = desc[name]
    if not isinstance(value, kind):
        raise MalformedDescription(f"{name!r} must be a {kind.__name__}, got {value!r}")
    return value


def make_ambient(desc: dict) -> Ambient:
    """Build an ambient from its JSON description.

    Raises MalformedDescription on bad input and NonAssociativeTable when a
    cayley table fails the exhaustive associativity scan; a table ambient is
    never constructed in a degraded state.
    """
    if not isinstance(desc, dict):
        raise MalformedDescription(f"description must be an object, got {desc!r}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MalformedDescription(f"unknown ambient kind {kind!r}")
    keys, build = _KINDS[kind]
    unknown = set(desc) - keys - {"kind"}
    if unknown:
        raise MalformedDescription(f"unknown {kind} ambient keys: {sorted(unknown)}")
    return build(desc)
