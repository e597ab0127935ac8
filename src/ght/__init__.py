"""Generalised Hadamard Transforms over Butson-type matrices.

Exact coefficient rings (cyclotomic rationals, rationals, GF(p), GF(p^2)) and
a floating complex cross-check backend; GBH verification; jacket-matrix
width, primality certificates and constructions; a catalog of named
transform matrices; and fast tensor-factored transform application.
"""

from .ring import (
    RingElement,
    RingError,
    RingSpec,
    complex_ring,
    cyclotomic,
    make_ring,
    prime_field,
    quadratic_field,
    rationals,
)
from .matrix import (
    DftNode,
    GMatrix,
    Leaf,
    MatrixError,
    Permutation,
    PermutedNode,
    TensorNode,
    equal,
    mat_mul,
    normalize,
    permute,
    scalar_mul,
    star,
    tensor,
)
from .gbh import GbhReport, b3, dft_matrix, row_sums, verify_gbh
from .jacket import (
    JacketReport,
    SearchBudgetExceeded,
    brute_width,
    dagger,
    is_jacket_form,
    is_primary_by_width,
    jacket_width,
    jacketize_cbt,
    jacketize_dft,
    perm_equivalent,
)
from .catalog import (
    FamilyLabel,
    QuadriphaseSequence,
    autocorrelation,
    back_circulant,
    cbt,
    complex_rjt,
    enumerate_jackets_2x2,
    family,
    is_perfect,
    k1,
    k2,
    k3,
    k4,
    k6,
    search_perfect_quadriphase,
    walsh,
)
from .transform import OpCount, Signal, fast_apply, ght, ight

__version__ = "0.1.0"
