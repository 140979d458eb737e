"""spreadpol: exact spreading, polarization and lcm-lattice computations.

The package decides whether the iterated squarefree spreading of a monomial
ideal agrees with its polarization up to a residue-respecting permutation of
variables (producing either an explicit permutation certificate or a
violating generator pair), compares lcm-lattices across spreading, and
verifies the depth / Stanley depth transfer laws with exact desk-scale
oracles.
"""

from .errors import (
    AmbientMismatchError,
    BadAmbientError,
    BadParameterError,
    DegreeBoundError,
    DegreeMismatchError,
    EmptySetError,
    ExponentOverflowError,
    IdealFileError,
    InvariantViolation,
    NotMinimalError,
    NotSmoothInputError,
    ShapeMismatchError,
    SpreadpolError,
    SupportOverlapError,
    TooLargeError,
    UnitGeneratorError,
    WellDefinednessViolation,
    ZeroIdealError,
)
from .invariants import (
    BettiTable,
    CharacteristicPoset,
    DepthReport,
    LawCheck,
    SdepthReport,
    SpreadingLawsReport,
    build_characteristic_poset,
    depth_quotient,
    order_complex_betti,
    sdepth_ideal,
    sdepth_quotient,
    verify_spreading_laws,
)
from .lattices import (
    LatticeMap,
    LcmLattice,
    build_delta,
    build_lcm_lattice,
    hasse_dot,
    is_isomorphic,
    verify_delta,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    SpreadEmbedding,
    embed_spread,
    is_complete_intersection,
    is_t_spread,
    minimalize,
    polarize,
    polarize_ideal,
    sigma,
    sigma_t,
    spread_ideal,
)
from .smooth import (
    SmoothCertificate,
    SmoothWitness,
    T2Verdict,
    adjoin_disjoint,
    adjoin_pure_powers_condition,
    check_smooth,
    check_smooth_ideal,
    check_smooth_t2,
    is_smoothly_spreadable,
    product_construct,
    verify_certificate,
)
from .taylor import taylor_betti

__version__ = "0.1.0"
