"""Algebraic and combinatorial shifting of simplicial complexes.

Core objects: bitmask faces, immutable simplicial complexes, graded
Betti tables of Stanley-Reisner ideals, combinatorial shifting, and
exterior generic initial ideals over GF(p).
"""

from .complexes import (
    InvariantError,
    ShiftlabError,
    SimplicialComplex,
    f_vector,
    from_facets,
    from_faces,
    from_json,
    full_simplex,
    ideal_degree_slice,
    ideal_slices,
    is_shifted,
    m_leq,
    m_leq_counts,
    minimal_nonfaces,
    restriction,
    to_json,
)
from .exterior import GenericMatrix, GenericityError, gin, phi_image_matrix, random_gl
from .faces import binom, mask_of, members_of
from .homology import (
    BettiTable,
    betti_leq,
    boundary_matrix,
    hochster_betti,
    reduced_homology_dims,
    shifted_betti,
)
from .lexsegment import delta_lex
from .section4 import (
    EXPECTED_QSEQUENCES,
    section4_build,
    section4_enumerate_and_classify,
    section4_negative_results,
)
from .shifting import enumerate_shifted, replay, shift_ij, shift_to_shifted
from .verify import VerificationReport, random_complex, verify_theorems

__all__ = [
    "SimplicialComplex",
    "BettiTable",
    "GenericMatrix",
    "GenericityError",
    "InvariantError",
    "ShiftlabError",
    "VerificationReport",
    "EXPECTED_QSEQUENCES",
    "binom",
    "betti_leq",
    "boundary_matrix",
    "delta_lex",
    "enumerate_shifted",
    "f_vector",
    "from_facets",
    "from_faces",
    "from_json",
    "full_simplex",
    "gin",
    "hochster_betti",
    "ideal_degree_slice",
    "ideal_slices",
    "is_shifted",
    "m_leq",
    "m_leq_counts",
    "mask_of",
    "members_of",
    "minimal_nonfaces",
    "phi_image_matrix",
    "random_complex",
    "random_gl",
    "reduced_homology_dims",
    "replay",
    "restriction",
    "section4_build",
    "section4_enumerate_and_classify",
    "section4_negative_results",
    "shift_ij",
    "shift_to_shifted",
    "shifted_betti",
    "to_json",
    "verify_theorems",
]
