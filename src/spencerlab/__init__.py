"""Exact computation of graded chain complexes on weighted affine cones.

The package builds Koszul, de Rham, jet, Spencer, and truncated
differential-operator complexes degreewise over the rationals, certifies
acyclicity through explicit contracting homotopies, and computes adic and
derived completions as towers with exact lim / lim^1 reports.
"""

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    ParseError,
    SceneError,
    SpencerlabError,
)
from .rings import (
    INHOMOGENEOUS,
    AffineScene,
    Ideal,
    Polynomial,
    WeightedRing,
    parse_polynomial,
    scene,
)
from .modules import PresentedModule, free_module, o_piece
from .linalg import GradedPiece, LinearMap, rank_kernel_image
from .groebner import buchberger, quotient_dimension
from .complexes import (
    GradedComplex,
    HomologyTable,
    build_de_rham,
    build_jet_complex,
    build_koszul,
    build_spencer_of_module,
    homology_table,
)
from .homotopy import (
    AcyclicityCertificate,
    Derivation,
    acyclicity_certificate,
    cartan_check,
    euler_derivation,
    interior_product_matrix,
    lie_derivative_matrix,
)
from .diffops import (
    filtered_spencer,
    kashiwara_quotient,
    pushforward_point,
)
from .completion import (
    LimitReport,
    Tower,
    adic_tower,
    completed_complex,
    completed_koszul_h0,
    derived_completion,
    embedding_independence,
    tower_limit,
)
from .invariants import jacobian_smoothness, milnor_tjurina, spencer_h0
from .scenes import load_scene, parse_scene_text

__version__ = "0.1.0"
