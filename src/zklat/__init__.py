"""Self-dual codes over Z_k, Construction A unimodular lattices, and
k-frames, with exact-arithmetic verification throughout.
"""

from .bounds import BoundProfile, classify, d_E_upper_bound, unimodular_min_norm_bound
from .catalog import CatalogEntry, FrameVerdict, build, catalog_get, catalog_list, frame_report
from .codes import (
    ZkCode,
    build_four_negacirculant,
    build_z4_two_block,
    euclidean_weight,
    is_self_dual,
    min_euclidean_weight,
)
from .errors import (
    BudgetExceeded,
    MembershipViolation,
    PreconditionViolation,
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
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
)
from .skew import (
    REPRESENTATION_CASES,
    FrameQuadruple,
    RepresentationCase,
    SkewSeed,
    build_code_from_skew,
    build_frame,
    build_paley_skew,
    four_square_decomposition,
    frame_constant,
    representation_search,
    scale_frame,
    search_quadruple,
    star_condition_check,
)

__version__ = "0.1.0"
