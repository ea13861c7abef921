"""Finitely-described semigroups and the element arithmetic they interpret.

An Ambient bundles a carrier representation with an associative binary
operation and a report of the axioms it satisfies.  Elements are plain
Python values (residues, index ints, tuples of ints, words, tuples of
factor elements); they carry no back-reference to their ambient, so every
operation takes the ambient explicitly.  All built-in kinds are immutable
after construction and safe to share across workers.

Built-in kinds:

    zmod(n)          integers modulo n, a finite cyclic group
    cayley(table)    a finite semigroup given by its multiplication table,
                     axioms decided by exhaustive scan at construction
    int_lattice(d)   Z^d under vector addition (a group)
    nat_lattice(d)   N^d under vector addition (a cancellative monoid)
    free_monoid(A)   words over a finite alphabet under concatenation
    product(...)     the direct product of any of the above
"""

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Optional

from .errors import (
    ElementAmbientMismatch,
    MalformedDescription,
    NonAssociativeTable,
    NonCancellativeAmbiguity,
)

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
    """Base class; concrete kinds implement the element arithmetic."""

    kind = "abstract"

    def __init__(self):
        self.axioms: AxiomReport
        self._carrier = None
        self._index = None
        self._table = None
        self._keyval = None
        self._hashval = None

    # -- identification ------------------------------------------------

    def describe(self) -> dict:
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def _ckey(self):
        k = self._keyval
        if k is None:
            k = self._keyval = self._key()
        return k

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ambient) and self._ckey() == other._ckey()

    def __hash__(self):
        h = self._hashval
        if h is None:
            h = self._hashval = hash(self._ckey())
        return h

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
        if self._carrier is None:
            self._carrier = self._build_carrier()
        return self._carrier

    def _build_carrier(self) -> tuple:
        raise NotImplementedError

    def index_of(self, x) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.carrier())}
        return self._index[x]

    def index_table(self):
        """Addition on carrier indices, or None when the carrier is absent
        or too large to tabulate."""
        n = self.carrier_size
        if n is None or n > TABLE_CAP:
            return None
        if self._table is None:
            elems = self.carrier()
            idx = self.index_of
            self._table = [[idx(self.add(a, b)) for b in elems] for a in elems]
        return self._table

    # -- analytic order rules ---------------------------------------------

    def ord_is_infinite(self, x) -> bool:
        """True when the cyclic orbit of x is provably infinite."""
        return False

    def gen_size_bound(self, elems):
        """Upper bound on the size of the subsemigroup generated by elems;
        INF when that subsemigroup is provably infinite."""
        from .extnat import INF

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
        super().__init__()
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

    def _key(self):
        return ("zmod", self.n)

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

    def _build_carrier(self):
        return tuple(range(self.n))

    def index_of(self, x):
        return x


class Cayley(Ambient):
    """A finite semigroup given by its full multiplication table.

    The table is an n by n matrix of indices; entry [i][j] is the index of
    element i + element j.  Associativity is verified exhaustively at
    construction (all n**3 triples) and a violating triple is reported;
    cancellativity, identity, commutativity and units are decided by scans
    over the same table.
    """

    kind = "cayley"

    def __init__(self, table, labels=None):
        super().__init__()
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
        self.labels = tuple(str(s) for s in labels)
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
        self._units = None

    @staticmethod
    def _check_shape(table):
        if not isinstance(table, (list, tuple)) or not table:
            raise MalformedDescription("cayley table must be a nonempty matrix")
        n = len(table)
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

    def _key(self):
        return ("cayley", self.table, self.labels)

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

    def _unit_map(self):
        if self._units is None:
            n = len(self.table)
            e = self.axioms.identity
            units = {}
            if e is not None:
                for x in range(n):
                    for w in range(n):
                        if self.table[x][w] == e and self.table[w][x] == e:
                            units[x] = w
                            break
            self._units = units
        return self._units

    def is_unit(self, x):
        return x in self._unit_map()

    def invert(self, x):
        return self._unit_map().get(x)

    @property
    def all_units(self):
        return len(self._unit_map()) == len(self.table)

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < len(self.table):
            raise ElementAmbientMismatch(f"{x!r} is not a table index")

    def sort_key(self, x):
        return x

    def _build_carrier(self):
        return tuple(range(len(self.table)))

    def index_of(self, x):
        return x

    def index_table(self):
        return self.table


class IntLattice(Ambient):
    """Z^dim under componentwise addition; every element is a unit."""

    kind = "int_lattice"

    def __init__(self, dim: int):
        super().__init__()
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise MalformedDescription(f"dimension must be a positive int, got {dim!r}")
        self.dim = dim
        zero = (0,) * dim
        self.axioms = AxiomReport(True, True, True, zero, True, None)

    def describe(self):
        return {"kind": "int_lattice", "dim": self.dim}

    def _key(self):
        return ("int_lattice", self.dim)

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

    def __init__(self, dim: int):
        super().__init__(dim)
        zero = (0,) * dim
        self.axioms = AxiomReport(True, True, True, zero, True, None)

    def describe(self):
        return {"kind": "nat_lattice", "dim": self.dim}

    def _key(self):
        return ("nat_lattice", self.dim)

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
        super().__init__()
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

    def _key(self):
        return ("free_monoid", self.alphabet)

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

    def validate(self, x):
        if not isinstance(x, str) or not self._symset.issuperset(x):
            raise ElementAmbientMismatch(f"{x!r} is not a word over {self.alphabet}")

    def sort_key(self, x):
        return (len(x), x)

    def ord_is_infinite(self, x):
        return x != ""

    def _build_carrier(self):
        return ("",)  # empty alphabet only


class Product(Ambient):
    """Direct product of ambients; axioms compose componentwise."""

    kind = "product"

    def __init__(self, factors):
        super().__init__()
        factors = tuple(factors)
        if not factors or not all(isinstance(f, Ambient) for f in factors):
            raise MalformedDescription("product needs at least one ambient factor")
        self.factors = factors
        axs = [f.axioms for f in factors]
        has_id = all(a.has_identity for a in axs)
        sizes = [a.finite_order for a in axs]
        finite = None
        if all(s is not None for s in sizes):
            finite = 1
            for s in sizes:
                finite *= s
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

    def _key(self):
        return ("product", tuple(f._key() for f in self.factors))

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

    def ord_is_infinite(self, x):
        return any(f.ord_is_infinite(a) for f, a in zip(self.factors, x))

    def gen_size_bound(self, elems):
        from .extnat import INF

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

    def _build_carrier(self):
        return tuple(_cartesian(*(f.carrier() for f in self.factors)))

    def encode(self, x):
        return [f.encode(a) for f, a in zip(self.factors, x)]

    def decode(self, v):
        if not isinstance(v, list) or len(v) != len(self.factors):
            raise ElementAmbientMismatch(f"{v!r} is not a product element encoding")
        return tuple(f.decode(a) for f, a in zip(self.factors, v))


_KINDS = {
    "zmod": lambda d: ZMod(_field(d, "n")),
    "cayley": lambda d: Cayley(_field(d, "table"), d.get("labels")),
    "int_lattice": lambda d: IntLattice(_field(d, "dim")),
    "nat_lattice": lambda d: NatLattice(_field(d, "dim")),
    "free_monoid": lambda d: FreeMonoid(_field(d, "alphabet", list)),
    "product": lambda d: Product(make_ambient(f) for f in _field(d, "factors", list)),
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
    if kind not in _KINDS:
        raise MalformedDescription(f"unknown ambient kind {kind!r}")
    return _KINDS[kind](desc)
