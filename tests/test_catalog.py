"""Catalog constructors, the tensor family classification, and the
quadriphase perfect-sequence machinery."""

import itertools

import numpy as np
import pytest

from ght import (
    GMatrix,
    QuadriphaseSequence,
    autocorrelation,
    b3,
    back_circulant,
    cbt,
    complex_ring,
    cyclotomic,
    dagger,
    enumerate_jackets_2x2,
    equal,
    family,
    is_perfect,
    k1,
    k2,
    k3,
    k4,
    k6,
    normalize,
    perm_equivalent,
    quadratic_field,
    rationals,
    search_perfect_quadriphase,
    tensor,
    verify_gbh,
    walsh,
)
from ght.catalog import _perfect_rows, _shift_counts, complex_rjt, from_token
from ght.jacket import jacketize_dft
from ght.matrix import MatrixError
from ght.ring import RingError


def test_walsh_display():
    s1 = walsh(1)
    q = rationals()
    assert s1.rows() == [[q.one(), q.one()], [q.one(), q.from_int(-1)]]


def test_walsh_tensor_identity():
    assert equal(walsh(3), tensor(walsh(2), walsh(1)))


def test_walsh_gbh():
    rep = verify_gbh(walsh(5))
    assert rep.is_gbh and rep.v == 32 and rep.w == 2


def test_walsh_t0_rejected():
    with pytest.raises(MatrixError):
        walsh(0)


def test_cbt_base_case():
    ring = cyclotomic(4)
    i = ring.root_of_unity(4)
    c1 = cbt(1)
    assert c1.row(0) == [ring.one(), -i]
    assert c1.row(1) == [ring.one(), i]


def test_cbt_c2_blocks():
    c2 = cbt(2)
    ring = c2.ring
    for i in range(2):
        for j in range(2):
            assert c2.entry(i, j) == walsh(1, ring).entry(i, j)


@pytest.mark.parametrize("t", range(1, 6))
def test_cbt_gbh(t):
    rep = verify_gbh(cbt(t))
    assert rep.is_gbh and rep.v == 2 ** t


def test_cbt_needs_fourth_root():
    with pytest.raises(RingError):
        cbt(2, rationals())


def _cbt_by_exponents(t):
    """The reference C_t: the block recursion C_2 = [[S_1, S_1], [C_1, -C_1]],
    C_m = [[C_{m-1}, C_{m-1}], [W, -W]] with W = C_1 (x) S_{m-2}, run on
    exponents of i: C_1 = [[0, 3], [0, 1]] and S_1 = [[0, 0], [0, 2]], -X is
    X + 2 and (x) adds exponents; returned as an int array of exponents."""
    s, e = np.zeros((1, 1), dtype=np.int64), np.array([[0, 0], [0, 2]])
    for _ in range(t - 1):
        wing = np.block([[s, s + 3], [s, s + 1]])
        e = np.block([[e, e], [wing, wing + 2]])
        s = np.block([[s, s], [s, s + 2]])
    return e % 4


@pytest.mark.parametrize("t", range(2, 13))
def test_cbt_equals_the_exponent_recursion(t):
    # cbt builds the doubling tree D(C_{m-1}, C_1 (x) S_{m-2}); its expansion
    # is the matrix of the exponent recursion, entry by entry up to t = 8
    ring = cyclotomic(4)
    powers = ring.root_powers(4)
    e = _cbt_by_exponents(t)
    C = cbt(t)
    assert C.tree is not None and C.tree.kind == "double" and C.order == 2**t
    ref = GMatrix._table(ring, powers, e)
    assert equal(C, ref)
    if t <= 8:
        rows = C.rows()
        assert all(rows[j][k] == powers[e[j, k]] for j in range(2**t) for k in range(2**t))


def test_k2_of_one_would_be_s2():
    # the r = +-1 degenerations are rejected; the identity K2(1) = S2 is
    # checked on the raw pattern instead
    ring = rationals()
    rows = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
    from ght import GMatrix

    assert equal(GMatrix.from_rows(ring, rows), walsh(2))
    with pytest.raises(RingError):
        k2(1)
    with pytest.raises(RingError):
        k2(-1)


def test_k3_row3_display():
    ring = cyclotomic(6)
    a = ring.root_of_unity(6)
    K = k3(ring)
    assert K.row(2) == [ring.one(), a ** 2, a ** 4, a ** 4, a ** 2, ring.one()]


def test_k3_rejects_wrong_order():
    # k3 takes its root from root_of_unity(6), so a ring whose roots of
    # unity have no element of order 6 cannot build it
    for ring in (cyclotomic(4), rationals()):
        with pytest.raises(RingError):
            k3(ring)


def test_k3_over_gf25():
    K = k3(quadratic_field(5))
    rep = verify_gbh(K)
    assert rep.is_gbh and rep.v == 6


def test_k4_row8_display():
    K = k4()
    ring = K.ring
    want = [1, -1, 1, -1, -1, 1, -1, 1]
    assert K.row(7) == [ring.from_int(n) for n in want]


def test_k6_equals_dagger():
    ring = cyclotomic(3)
    for r in (2, 3):
        assert equal(k6(ring, r), dagger(b3(ring), k2(r, ring)))


def test_catalog_gbh_over_natural_rings():
    mats = [
        walsh(4),
        cbt(3),
        k1(),
        k2(2),
        k3(cyclotomic(6)),
        k4(),
        k6(cyclotomic(3), 2),
    ]
    for M in mats:
        assert verify_gbh(M).is_gbh


def test_family_wht():
    M, label = family(2, 0, 0, None, None, rationals())
    assert label.tag == "WHT"
    assert equal(M, walsh(2))


def test_family_dft_equivalent():
    _, label = family(0, 0, 1, 3, None, complex_ring())
    assert label.tag == "DFT-equivalent"
    _, label = family(0, 0, 1, 3, None, cyclotomic(6))
    assert label.tag == "DFT-equivalent"


def test_family_cwht():
    M, label = family(1, 1, 0, None, 2, rationals())
    assert label.tag == "CWHT"
    assert equal(M, tensor(k1(), k2(2)))


def test_family_complex_rjt():
    ring = cyclotomic(4)
    _, label = family(1, 0, 1, 2, None, ring)
    assert label.tag == "complex-RJT"
    _, label = family(0, 1, 0, None, ring.root_of_unity(4), ring)
    assert label.tag == "complex-RJT"


def _rjt_by_exponents(n, omega):
    """Reference: entry (j, k) is omega^(e_j e_k) with e = (j1, j0) ->
    j1 n + (1 - j1) j0 + (n - 1 - j0) j1, each power a product of omegas."""
    exps = []
    for j in range(2 * n):
        j1, j0 = divmod(j, n)
        exps.append(j1 * n + (1 - j1) * j0 + (n - 1 - j0) * j1)
    powers = [omega.ring.one()]
    for _ in range(4 * n * n):
        powers.append(powers[-1] * omega)
    return [[powers[a * b] for b in exps] for a in exps]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_complex_rjt_is_the_permuted_power_table(n):
    for ring in (cyclotomic(2 * n), complex_ring()):
        omega = ring.root_of_unity(2 * n)
        for root in (omega, omega.inverse()):
            M = complex_rjt(n, root)
            assert M.tree is None and M.order == 2 * n
            assert all(
                a == b for ra, rb in zip(M.rows(), _rjt_by_exponents(n, root)) for a, b in zip(ra, rb)
            )
        assert equal(complex_rjt(n, omega), jacketize_dft(n, ring)[0])
    if n > 1:
        with pytest.raises(RingError):
            complex_rjt(n, cyclotomic(2 * n).root_of_unity(n))


def test_family_extended():
    _, label = family(1, 0, 1, 3, None, quadratic_field(5))
    assert label.tag == "extended-complex-RJT"


def test_family_empty_rejected():
    with pytest.raises(MatrixError):
        family(0, 0, 0, None, None, rationals())


def test_family_tree_fast_applies():
    from ght import Signal, fast_apply, ght

    ring = cyclotomic(4)
    M, _ = family(1, 1, 1, 2, ring.root_of_unity(4), ring)
    assert M.tree is not None
    import random

    rng = random.Random(7)
    for _ in range(5):
        x = Signal.from_ints(ring, [rng.randint(-5, 5) or 1 for _ in range(M.order)])
        y, _ = fast_apply(M.tree, x)
        assert y == ght(M, x)


def test_autocorrelation_basics():
    s = QuadriphaseSequence((0, 0, 0, 0))
    ring = cyclotomic(4)
    assert autocorrelation(s, 0, ring) == ring.from_int(4)
    assert autocorrelation(s, 1, ring) == ring.from_int(4)
    assert not is_perfect(s)


def test_autocorrelation_at_zero_is_length():
    s = QuadriphaseSequence((0, 1, 3, 2, 2, 0))
    ring = cyclotomic(4)
    assert autocorrelation(s, 0, ring) == ring.from_int(6)


def test_back_circulant_symmetric():
    s = QuadriphaseSequence((0, 1, 2, 3))
    M = back_circulant(s)
    for j in range(4):
        for k in range(4):
            assert M.entry(j, k) == M.entry(k, j)


def test_perfect_iff_back_circulant_gbh_length4():
    import itertools

    for tail in itertools.product(range(4), repeat=3):
        s = QuadriphaseSequence((0,) + tail)
        assert is_perfect(s) == verify_gbh(back_circulant(s)).is_gbh


def test_search_length8():
    found = search_perfect_quadriphase(8)
    assert found
    assert len(found) < 16384 // 100  # rare
    for s in found[:4]:
        assert verify_gbh(back_circulant(s)).is_gbh


def _search_by_loop(L):
    """Reference: the candidate loop the search once ran, counter test first."""
    found = []
    for tail in itertools.product(range(4), repeat=L - 1):
        phases = (0,) + tail
        if all(c[0] == c[2] and c[1] == c[3] for c in (_shift_counts(phases, t) for t in range(1, L))):
            s = QuadriphaseSequence(phases)
            if is_perfect(s):
                found.append(s)
    return found


@pytest.mark.parametrize("L", range(1, 10))
def test_search_matches_the_candidate_loop(L):
    assert search_perfect_quadriphase(L) == _search_by_loop(L)


def test_search_length_cap():
    with pytest.raises(MatrixError):
        search_perfect_quadriphase(11)


def test_k4_equivalent_to_back_circulant():
    found = search_perfect_quadriphase(8)
    K = k4()
    hit = None
    for s in found:
        N, _, _ = normalize(back_circulant(s))
        w = perm_equivalent(N, K)
        if w is not None:
            hit = (s, w)
            break
    assert hit is not None


def test_enumerate_2x2_uniqueness():
    for w in (4, 6):
        ring = cyclotomic(w)
        found = enumerate_jackets_2x2(ring, w)
        assert len(found) == 1
        assert equal(found[0], k1(ring))


def test_from_token():
    assert equal(from_token("walsh:3"), walsh(3))
    assert equal(from_token("k2:2"), k2(2))
    assert equal(from_token("k6:2"), k6(cyclotomic(3), 2))
    assert from_token("family:1,1,0,0,2").order == 8
    with pytest.raises(MatrixError):
        from_token("nope")


def test_is_perfect_count_path_matches_the_element_path():
    # the search's count test (_perfect_rows) decides what the sums of the
    # elements decide, over Q(zeta_4) and over Q(zeta_8) and C, which hold i
    q4, q8, c = cyclotomic(4), cyclotomic(8), complex_ring()
    for L in range(1, 7):
        for tail in itertools.product(range(4), repeat=L - 1):
            s = QuadriphaseSequence((0,) + tail)
            want = all(autocorrelation(s, tau, q4) == q4.zero() for tau in range(1, L))
            assert (len(_perfect_rows(np.array([s.phases], dtype=np.int8))) == 1) == want, s
            assert is_perfect(s) == is_perfect(s, q4) == want, s
            assert is_perfect(s, q8) == is_perfect(s, c) == want, s
