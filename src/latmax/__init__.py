"""latmax: finite lattices, convex geometries, and maximal-sublattice complements."""

from .cdim2 import (
    Complement,
    Complements,
    NoCaseMatches,
    OpCounter,
    classify_complement,
    decompose_and_run,
    fast_complements,
    materialize,
)
from .geometry import (
    BadPermutation,
    ChainSpec,
    ConvexGeometry,
    TopOnly,
    build_cg,
    format_cg_text,
    parse_cg_text,
)
from .lattice import (
    CyclicInput,
    Interval,
    IrreducibleInfo,
    Lattice,
    NotALattice,
    canonical_join_rep,
    canonical_meet_rep,
    double_interval,
    from_cover_relations,
    from_cover_text,
    indecomposable_components,
    is_convex_subset,
    is_distributive,
    is_lower_semimodular,
    is_sd,
    is_sd_join,
    is_sd_meet,
    kappa,
    kappa_bijection_check,
    kappa_sigma,
    to_cover_text,
)
from .report import CheckReport
from .sublattice import (
    ComplementBounds,
    EmptyGenerator,
    NoCanonicalRep,
    OracleBoundExceeded,
    UndefinedBound,
    complement_bounds,
    frattini,
    generate_sublattice,
    is_maximal_sublattice,
    is_sublattice,
    maximal_complements_oracle,
    maximal_sublattices,
    observation_suite,
    strict_canonical_joinands,
    strict_canonical_meetands,
)

__all__ = [name for name in dir() if not name.startswith("_")]
