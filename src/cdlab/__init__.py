"""Sumsets, Cauchy-Davenport constants and Davenport transforms over
finite groups and finitely-described cancellative semigroups, plus
exhaustive and randomized verification of the associated lower bounds."""

from .ambient import (
    Ambient,
    AxiomReport,
    Cayley,
    FreeMonoid,
    IntLattice,
    NatLattice,
    Product,
    ZMod,
    make_ambient,
)
from .extnat import INF, ExtNat, encode_extnat
from .setops import (
    DEFAULT_BUDGET,
    FinSet,
    GenResult,
    center,
    difference,
    generated,
    generated_sym,
    is_commutative_generated,
    iterated_sumset,
    ord_elem,
    ord_set,
    sumset,
    sumset_size,
    union,
    units_of,
)
from .gamma import (
    GammaValue,
    InvariantTransform,
    gamma_set,
    gamma_tuple,
    invariant_transform,
    min_order,
    normalize_pair,
)
from .theorems import (
    BoundReport,
    DavenportPair,
    DescentTrace,
    EquivalenceVerdict,
    TheoremVerdict,
    check_cor_hs,
    check_cor_udt,
    check_cor_zn,
    check_prop_equiv,
    check_theorem_main,
    check_weaker_bound,
    conjecture_holds,
    davenport_transform,
    delta_y,
    descent,
)
from .search import (
    SearchReport,
    SearchSpec,
    enumerate_abelian_groups,
    replay,
    run_search,
)

__version__ = "0.1.0"
