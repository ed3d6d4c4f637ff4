"""Self-dual codes over Z_k, Construction A unimodular lattices, and
k-frames, with exact-arithmetic verification throughout.
"""

from .arith import (
    REPRESENTATION_CASES,
    FrameVerdict,
    RepresentationCase,
    four_square_decomposition,
    representation_search,
    scale_frame,
    star_condition_check,
)
from .bounds import BoundProfile, classify, d_E_upper_bound, unimodular_min_norm_bound
from .catalog import CatalogEntry, build, catalog_get, catalog_list, frame_report
from .codes import (
    ZkCode,
    build_bordered_circulant,
    build_four_negacirculant,
    build_z4_two_block,
    euclidean_weight,
    is_self_dual,
    min_euclidean_weight,
)
from .errors import (
    BadDimension,
    BudgetExceeded,
    CongruenceViolation,
    MembershipViolation,
    NotOdd,
    NotSelfDual,
    OutOfRange,
    PreconditionViolation,
    SkewViolation,
    UnknownId,
    ZklatError,
)
from .lattice import (
    Frame,
    Lattice,
    ThetaPrefix,
    construction_a,
    contains_frame,
    coset_theta,
    even_neighbors,
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
    two_neighbor_at_vector,
)
from .skew import (
    FrameQuadruple,
    SkewSeed,
    build_code_from_skew,
    build_frame,
    build_paley_skew,
    build_skew_negacirculant,
    frame_constant,
    search_quadruple,
    skew_seed_from_rows,
    with_params,
)

__version__ = "0.1.0"
