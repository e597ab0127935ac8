"""Unit-table matrix operations against per-entry references, on every backend.

Random small matrices are drawn from a few units of each ring. Every
operation is recomputed entry by entry here, from `entry` alone, and the
results must agree (the complex backend within its tolerance).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ght import (
    GMatrix,
    MatrixError,
    Permutation,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    mat_mul,
    permute,
    prime_field,
    quadratic_field,
    rationals,
    star,
    tensor,
    verify_gbh,
    walsh,
)


def _candidates(ring):
    """Six units of the ring."""
    kind = ring.spec.kind
    if kind == "rationals":
        return [ring.element(Fraction(n)) for n in (1, -1, 2, Fraction(1, 2), -3, 5)]
    if kind == "prime-field":
        return [ring.from_int(n) for n in range(1, 7)]
    z = ring.root_of_unity(6 if kind == "cyclotomic-rationals" else 8)
    return [z ** k for k in range(5)] + [ring.from_int(2)]


RINGS = {
    "rationals": rationals(),
    "cyclotomic": cyclotomic(6),
    "prime": prime_field(7),
    "quadratic": quadratic_field(5),
    "complex": complex_ring(),
}


@st.composite
def tables(draw, v):
    """(unit choices, codes): codes[i*v + j] indexes the chosen units."""
    units = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True))
    codes = draw(st.lists(st.integers(0, len(units) - 1), min_size=v * v, max_size=v * v))
    return units, codes


@st.composite
def cases(draw):
    ring = draw(st.sampled_from(sorted(RINGS)))
    v = draw(st.integers(1, 4))
    vc = draw(st.integers(1, 3))
    rowp = draw(st.permutations(range(v)))
    colp = draw(st.permutations(range(v)))
    return ring, v, draw(tables(v)), draw(tables(v)), vc, draw(tables(vc)), rowp, colp


def _build(ring, v, table):
    units, codes = table
    pool = _candidates(ring)
    units = [pool[k] for k in units]
    return GMatrix.from_rows(ring, [[units[codes[i * v + j]] for j in range(v)] for i in range(v)])


def _grid(M):
    return [[M.entry(i, j) for j in range(M.order)] for i in range(M.order)]


def _same(M, want):
    assert M.order == len(want)
    assert all(M.entry(i, j) == w for i, r in enumerate(want) for j, w in enumerate(r))


def _product(a, b):
    ring = a[0][0].ring
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero()
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _failures(a):
    """Positions, row by row, where the per-entry M M* differs from v I.

    When there are none and char R does not divide v, the product verify_gbh
    leaves out, M* M, must equal v I too.
    """
    ring = a[0][0].ring
    v = len(a)
    s = [[a[j][i].inverse() for j in range(v)] for i in range(v)]
    vi = [[ring.from_int(v) if i == j else ring.zero() for j in range(v)] for i in range(v)]
    mm = _product(a, s)
    out = [(i, j) for i in range(v) for j in range(v) if mm[i][j] != vi[i][j]]
    ch = ring.characteristic()
    if not out and (ch == 0 or v % ch):
        assert _product(s, a) == vi
    return out


# four units on each side of an order-2 product: 16 unit pairs > 2^2
# entries, so mat_mul takes its per-entry route
@example(
    case=(
        "cyclotomic",
        2,
        ([0, 1, 2, 3], [0, 1, 2, 3]),
        ([1, 2, 4, 5], [3, 2, 1, 0]),
        1,
        ([0], [0]),
        [1, 0],
        [0, 1],
    )
)
# A = the order-3 DFT over Q(zeta_6) (units 1, zeta_6^2, zeta_6^4), a GBH
@example(
    case=(
        "cyclotomic",
        3,
        ([0, 2, 4], [0, 0, 0, 0, 1, 2, 0, 2, 1]),
        ([0], [0] * 9),
        1,
        ([0], [0]),
        [0, 1, 2],
        [0, 1, 2],
    )
)
@given(case=cases())
def test_operations_match_per_entry_reference(case):
    name, v, ta, tb, vc, tc, rowp, colp = case
    ring = RINGS[name]
    A, B, C = _build(ring, v, ta), _build(ring, v, tb), _build(ring, vc, tc)
    a, b, c = _grid(A), _grid(B), _grid(C)

    _same(star(A), [[a[j][i].inverse() for j in range(v)] for i in range(v)])
    _same(
        tensor(A, C),
        [[a[i // vc][j // vc] * c[i % vc][j % vc] for j in range(v * vc)] for i in range(v * vc)],
    )
    rinv, cinv = np.argsort(rowp), np.argsort(colp)
    _same(
        permute(A, Permutation(tuple(rowp)), Permutation(tuple(colp))),
        [[a[rinv[i]][cinv[j]] for j in range(v)] for i in range(v)],
    )
    _same(mat_mul(A, B), _product(a, b))
    _same(mat_mul(A, star(A)), _product(a, _grid(star(A))))
    assert equal(A, B) == all(a[i][j] == b[i][j] for i in range(v) for j in range(v))
    assert equal(A, GMatrix.from_rows(ring, a))
    if v >= 2:
        assert verify_gbh(A).failures == _failures(a)


@pytest.mark.parametrize(
    "M",
    [walsh(3), dft_matrix(6, cyclotomic(6)), dft_matrix(8, complex_ring())],
    ids=["walsh3", "dft6-cyclotomic", "dft8-complex"],
)
def test_planted_entry_fails_its_row_and_column(M):
    # negating entry (2, 5) leaves (M M*)[2][2] = v and spoils every other
    # entry of row and column 2 of M M*, and nothing else
    v = M.order
    grid = _grid(M)
    grid[2][5] = -grid[2][5]
    rep = verify_gbh(GMatrix.from_rows(M.ring, grid))
    assert not rep.is_gbh
    assert rep.failures == [(i, j) for i in range(v) for j in range(v) if (i == 2) != (j == 2)]
    assert len(rep.failures) == 2 * (v - 1)


def test_integer_array_is_embedded():
    q = rationals()
    M = GMatrix(q, np.array([[1, 1], [1, -1]], dtype=np.int8))
    assert equal(M, GMatrix.from_rows(q, [[1, 1], [1, -1]]))
    assert len(M.units) == 2 and M.idx.dtype == np.uint8
    assert not M.idx.flags.writeable
    with pytest.raises(MatrixError):
        GMatrix(q, np.array([[1, 0], [1, 1]]))


def test_units_are_deduplicated_by_exact_payload():
    c = complex_ring(1e-9)
    near = c.element(1 + 1e-12j)
    assert near == c.one()
    M = GMatrix.from_rows(c, [[c.one(), near], [near, c.one()]])
    assert len(M.units) == 2
    assert M.entry(0, 1).payload == 1 + 1e-12j
