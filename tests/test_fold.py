"""The reduction of the numeric lane: the plane products of _lane_apply meet
the ring's reduced powers of x in one product (matrix._fold), exact at the
bound _lane_dtype derives from them, with Python integers wherever a value
may pass 2^53, and refused before it is built when it would be too large."""

import random

import numpy as np
import pytest

from ght import (
    GMatrix,
    MatrixError,
    Signal,
    cyclotomic,
    dft_matrix,
    ght,
    ight,
    mat_mul,
    prime_field,
    quadratic_field,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght.matrix import _FOLD_VALUES, _fold, _lane_apply, _lane_batch, _lane_max, _lane_of

# GF(p^2) for p = 2^61 - 1 modulo y^2 + (p - 3) y + (p - 2): the fold row of
# y^2 holds -(p - 2) and -(p - 3), which float64 rounds to -2^61; and for
# p = 1048573 modulo y^2 + (p - 1) y + (p - 1), whose products take float64
# only because the plane products are reduced modulo p before the fold
P61 = 2**61 - 1
GF_P61 = quadratic_field(P61, (P61 - 2, P61 - 3, 1))
P20 = 1048573
GF_P20 = quadratic_field(P20, (P20 - 1, P20 - 1, 1))


def _dot_rows(M, x):
    """Reference: each entry of M x by ring.dot, one ring operation at a time."""
    return [M.ring.dot(zip(M.row(i), x.elements)) for i in range(M.order)]


def _product_by_dot(A, B):
    v, ring = A.order, A.ring
    return [[ring.dot((A.entry(i, k), B.entry(k, j)) for k in range(v)) for j in range(v)] for i in range(v)]


def _gf_matrices():
    for ring in (GF_P61, GF_P20):
        yield dft_matrix(8, ring)
        yield tensor(dft_matrix(4, ring), dft_matrix(8, ring))


@pytest.mark.parametrize("M", _gf_matrices(), ids=lambda M: f"{M.ring.spec.p}-{M.order}")
def test_transforms_over_large_gf_p_squared_match_the_ring_dot(M):
    ring, p = M.ring, M.ring.spec.p
    assert _lane_of(M).nonzero()[0] == (0, 1)
    rnd = random.Random(M.order)
    for _ in range(3):
        x = Signal(ring, tuple(ring.element((rnd.randrange(p), rnd.randrange(p))) for _ in range(M.order)))
        y = ght(M, x)
        assert list(y.elements) == _dot_rows(M, x)
        assert ight(M, y) == x
        assert ght(M, ight(M, x)) == x


@pytest.mark.parametrize("ring", [GF_P61, GF_P20], ids=lambda ring: str(ring.spec.p))
def test_mat_mul_over_large_gf_p_squared_matches_the_ring_dot(ring):
    F = dft_matrix(8, ring)
    for A, B in ((F, F), (F, star(F)), (star(F), F)):
        P = mat_mul(A, B)
        assert [P.row(i) for i in range(P.order)] == _product_by_dot(A, B)
    assert verify_gbh(F).is_gbh
    dtype = _lane_apply(F, *_lane_batch(_lane_of(F), F.idx))[0].dtype
    assert dtype == (object if ring is GF_P61 else np.float64)


def _fold_reference(ring, ma):
    """Rows x^(m + j) mod Phi_w for m in ma and j < d, each reduced afresh,
    and their largest column sum in size."""
    d = ring.deg
    rows = [ring._reduce([0] * (m + j) + [1]) for m in ma for j in range(d)]
    return rows, max(sum(abs(row[c]) for row in rows) for c in range(d))


def _batch_elements(ring, X):
    """The signals of a lane batch X over den 1, one list per vector."""
    d = ring._lane_dim
    return [[ring.element(ring._lane_payload(X[r, k * d : (k + 1) * d].tolist(), 1)) for r in range(len(X))] for k in range(X.shape[1] // d)]


@pytest.mark.parametrize("w", [4, 12, 15, 24])
def test_the_fold_is_exact_just_below_and_just_above_2_53(w):
    # a leaf with two or more nonzero planes against batches of values up to
    # big_x, big_x among them, where t * G is just below 2^53 (float64) and
    # at 2^53 or past it (Python integers)
    ring = cyclotomic(w)
    A = dft_matrix(w, ring)
    ma, big_a = _lane_of(A).nonzero()
    assert len(ma) >= 2
    rows, G = _fold_reference(ring, ma)
    assert _fold(ring, ma)[0] == G
    for dtype in (np.float64, object):
        assert np.array_equal(_fold(ring, ma)[1](dtype), rows)
    v, low = A.order, (2**53 - 1) // (A.order * big_a * G)
    rnd = np.random.default_rng(w)
    for big_x, dtype in ((low, np.float64), (low + 1, object)):
        assert (v * big_a * big_x * G < 2**53) == (dtype is np.float64)
        X = rnd.integers(-big_x, big_x, size=(v, 3 * ring.deg), endpoint=True)
        X[0, 0] = big_x
        Y, den, big = _lane_apply(A, X, 1, big_x)
        assert Y.dtype == dtype and den == 1
        assert big >= _lane_max(Y.reshape(v, -1))
        for k, x in enumerate(_batch_elements(ring, X)):
            got = [ring.element(ring._lane_payload([int(c) for c in Y[i, k]], den)) for i in range(v)]
            assert got == _dot_rows(A, Signal(ring, tuple(x)))


def test_one_plane_over_a_large_p_keeps_the_narrow_dtype():
    # for d = 1 nothing is folded: the plane product alone bounds the values,
    # so a small batch over GF(2^61 - 1) stays in float32, reduced after
    ring = prime_field(P61)
    A = GMatrix.from_rows(ring, [[1, 2], [3, 4]])
    small, large = np.array([[5], [6]]), np.array([[5], [P61 - 1]], dtype=object)
    for X, dtype in ((small, np.float32), (large, object)):
        Y, _, big = _lane_apply(A, X, 1, _lane_max(X))
        assert Y.dtype == dtype and big == P61 - 1
        assert [int(c) for c in Y.ravel()] == [(X[0, 0] + 2 * X[1, 0]) % P61, (3 * X[0, 0] + 4 * X[1, 0]) % P61]


def test_plane_zero_alone_folds_nothing():
    # a +-1 table has plane 0 alone, whose fold rows would be the identity:
    # the plane products are the result, and no fold is looked up or built
    ring = cyclotomic(20)
    A = walsh(3, ring)
    assert _lane_of(A).nonzero()[0] == (0,)
    X = np.random.default_rng(20).integers(-9, 9, size=(A.order, 2 * ring.deg), endpoint=True)
    calls = _fold.cache_info()
    Y, den, big = _lane_apply(A, X, 1, 9)
    assert _fold.cache_info()[:2] == calls[:2]
    assert big >= _lane_max(Y.reshape(A.order, -1))
    for k, x in enumerate(_batch_elements(ring, X)):
        got = [ring.element(ring._lane_payload([int(c) for c in Y[i, k]], den)) for i in range(A.order)]
        assert got == _dot_rows(A, Signal(ring, tuple(x)))


def test_the_fold_limit_covers_one_plane_of_every_ring_and_every_plane_of_dft512():
    # d <= phi(4093) = 4092 for every w the loader accepts; dft(512) over
    # Q(zeta_512) has all 256 planes nonzero, and Phi_512 = x^256 + 1 folds
    # each column from 256 powers
    assert 4092**2 <= _FOLD_VALUES and 256 * 256**2 <= _FOLD_VALUES
    assert _fold(cyclotomic(512), tuple(range(256)))[0] == 256


def test_an_oversized_fold_is_refused_before_it_is_built():
    # the table of the order-9 leaf of dft(4095) over Q(zeta_4095), without
    # its generator, so that verify_gbh takes the product: 882 nonzero planes
    # and d = 1728, 2.6e9 fold values
    F = dft_matrix(9, cyclotomic(4095))
    T = GMatrix._table(F.ring, F.units, F.idx)
    assert len(_lane_of(T).nonzero()[0]) * 1728**2 > _FOLD_VALUES
    with pytest.raises(MatrixError, match="above the limit"):
        verify_gbh(T)
