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
    cbt,
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
from ght.matrix import _lane_product


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


# four units on each side of an order-2 product, B's including the unit 2
# of Q(zeta_6), which is no root of unity: the numeric lane writes it as
# coefficient planes like any other unit
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


# GBH matrices of order 64-256 on all five backends, for the numeric lane at
# scale; each has -1 in its entry group
AT_SCALE = {
    "walsh8": lambda: walsh(8),
    "cbt6-cyclotomic": lambda: cbt(6, cyclotomic(4)),
    "dft64-gf193": lambda: dft_matrix(64, prime_field(193)),
    "dft8xdft8-gf25": lambda: tensor(dft_matrix(8, quadratic_field(5)), dft_matrix(8, quadratic_field(5))),
    "dft64-complex": lambda: dft_matrix(64, complex_ring()),
}


@pytest.mark.parametrize(
    "build",
    [lambda: walsh(3), lambda: dft_matrix(6, cyclotomic(6)), lambda: dft_matrix(8, complex_ring())]
    + list(AT_SCALE.values()),
    ids=["walsh3", "dft6-cyclotomic", "dft8-complex"] + list(AT_SCALE),
)
def test_planted_entry_fails_its_row_and_column(build):
    # negating entry (2, 5) leaves (M M*)[2][2] = v and spoils every other
    # entry of row and column 2 of M M*, and nothing else; -1 lies in the
    # entry group, so w is unchanged
    M = build()
    v = M.order
    plain = verify_gbh(M)
    assert plain.is_gbh and not plain.failures
    grid = _grid(M)
    grid[2][5] = -grid[2][5]
    rep = verify_gbh(GMatrix.from_rows(M.ring, grid))
    assert not rep.is_gbh
    assert rep.failures == [(i, j) for i in range(v) for j in range(v) if (i == 2) != (j == 2)]
    assert len(rep.failures) == 2 * (v - 1)
    assert rep.w == plain.w
    if v <= 64:
        assert rep.failures == _failures(grid)


@pytest.mark.parametrize(
    "ring",
    list(RINGS.values()) + [prime_field(1000003), quadratic_field(5, (2, 1, 1))],
    ids=list(RINGS) + ["prime-1000003", "quadratic-y2+y+2"],
)
def test_mat_mul_matches_per_entry_product_at_order_16(ring):
    # entries drawn from all six candidates, non-roots such as 2 and 1/2
    # included; over GF(1000003) the inverses of 2..6 are residues near p,
    # so star(A) star(B) needs the float64 product, and y^2 + y + 2 over
    # GF(5) has c0 != c1
    rng = np.random.default_rng(16)
    pool = _candidates(ring)
    a, b = ([[pool[k] for k in row] for row in rng.integers(0, 6, (16, 16))] for _ in range(2))
    A, B = GMatrix.from_rows(ring, a), GMatrix.from_rows(ring, b)
    _same(mat_mul(A, B), _product(a, b))
    _same(mat_mul(star(A), star(B)), _product(_grid(star(A)), _grid(star(B))))


def test_units_past_the_float_bound_take_the_integer_lane():
    # Q units 2^30 and 2^-30 over the common denominator 2^30 have
    # numerators up to 2^60, and GF(2^61 - 1) residues reach 2^61: the lane
    # multiplies Python integers in object arrays, for mat_mul and verify_gbh
    q = rationals()
    big = [q.element(Fraction(2) ** e) for e in (30, -30)] + [q.one(), q.from_int(-1)]
    gf = prime_field(2**61 - 1)
    rng = np.random.default_rng(61)
    gf_pool = [gf.from_int(int(n)) for n in rng.integers(1, 2**62, 4)]
    # the same over Q(zeta_6), whose fold modulo Phi_6 meets Python
    # integers, and over GF(p^2) with p^2 past 2^53 (y^2 + 1 is irreducible
    # as p = 3 mod 4)
    z6 = cyclotomic(6)
    zeta = z6.root_of_unity(6)
    big6 = [zeta * z6.from_int(2**30), zeta**2 * z6.from_int(2**30).inverse(), z6.one(), -zeta]
    gf2 = quadratic_field(2**31 - 1, (1, 0, 1))
    pairs = rng.integers(0, 2**31 - 1, (4, 2)).tolist()
    # GF(p^2) for p = 2^40 - 213 with y^2 = 2, written y^2 + (p - 2): the
    # products of these units stay near 2^43, but the fold multiplies
    # residues near p by c0 = p - 2, to about 2^80
    p40 = 2**40 - 213
    gf3 = quadratic_field(p40, (p40 - 2, 0, 1))
    big3 = [gf3.element(pair) for pair in [(1, 2**35 + 7), (5, 2**34 + 1), (2, 3), (1, 1)]]
    small3 = [gf3.element(pair) for pair in [(1, 1), (3, 7), (2, 31), (1, 0)]]
    gf2_pool = [gf2.element((a, b)) for a, b in pairs]
    pools = [
        (q, big, big),
        (gf, gf_pool, gf_pool),
        (z6, big6, big6),
        (gf2, gf2_pool, gf2_pool),
        (gf3, big3, small3),
    ]
    for ring, pool_a, pool_b in pools:
        a, b = ([[pool[k] for k in row] for row in rng.integers(0, 4, (4, 4))] for pool in (pool_a, pool_b))
        A, B = GMatrix.from_rows(ring, a), GMatrix.from_rows(ring, b)
        assert _lane_product(A, B)[0].dtype == object
        _same(mat_mul(A, B), _product(a, b))
    grids = (
        GMatrix.from_rows(q, [[big[i ^ j] for j in range(4)] for i in range(4)]),
        walsh(2, gf),
        GMatrix.from_rows(z6, [[big6[i ^ j] for j in range(4)] for i in range(4)]),
        walsh(2, gf2),
    )
    for M in grids:
        grid = _grid(M)
        planted = [row[:] for row in grid]
        planted[3][1] = -planted[3][1]
        for g in (grid, planted):
            rep = verify_gbh(GMatrix.from_rows(M.ring, g))
            assert rep.method == "numeric-lane"
            assert rep.failures == _failures(g)


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
