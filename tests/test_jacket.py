"""Jacket form, width, jacketizations, the dagger construction, and the
permutation-equivalence search."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ght import (
    GMatrix,
    MatrixError,
    Permutation,
    QuadriphaseSequence,
    SearchBudgetExceeded,
    b3,
    back_circulant,
    brute_width,
    cbt,
    complex_ring,
    complex_rjt,
    cyclotomic,
    dagger,
    dft_matrix,
    equal,
    is_jacket_form,
    is_primary_by_width,
    jacket_width,
    jacketize_cbt,
    jacketize_dft,
    k1,
    k2,
    k3,
    k4,
    k6,
    normalize,
    perm_equivalent,
    permute,
    rationals,
    scalar_mul,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght import jacket
from ght.catalog import from_token


def test_jacket_form_examples():
    assert is_jacket_form(k2(2))
    assert is_jacket_form(walsh(2))
    assert not is_jacket_form(dft_matrix(4, cyclotomic(4)))


def test_jacket_form_odd_order_raises():
    with pytest.raises(MatrixError):
        is_jacket_form(b3(cyclotomic(3)))


@pytest.mark.parametrize("t", range(1, 7))
def test_walsh_width_extremal(t):
    assert jacket_width(walsh(t)).width == 2 ** (t - 1)


def test_width_one_matrices():
    for M in (k2(2), k3(cyclotomic(6)), k4(), k6(cyclotomic(3), 2)):
        rep = jacket_width(M)
        assert rep.width == 1
        assert rep.certificate == "primary-by-width"
        assert is_primary_by_width(M) == "primary-by-width"


def test_k2_one_is_s2_and_unknown():
    # r = 1 is rejected by the constructor; S_2 itself has width 2
    with pytest.raises(Exception):
        k2(1)
    assert is_primary_by_width(walsh(2)) == "unknown"


def test_width_report_invariants():
    for M in (walsh(3), k4(), k6(cyclotomic(3), 2)):
        rep = jacket_width(M)
        n = M.order // 2
        assert rep.width <= n
        if rep.width >= 2:
            assert rep.pm1_rows >= 2 * rep.width
            assert rep.pm1_cols >= 2 * rep.width


def test_width_witness_realises_border():
    for M in (walsh(3), k4(), jacketize_cbt(3)[0]):
        rep = jacket_width(M)
        P = permute(M, rep.row_witness, rep.col_witness)
        m, v = rep.width, M.order
        one = M.ring.one()
        minus = M.ring.from_int(-1)
        border = list(range(1, m)) + list(range(v - m, v))
        assert all(P.entry(0, j) == one for j in range(v))
        assert all(P.entry(i, 0) == one for i in range(v))
        for i in border:
            assert all(P.entry(i, j) in (one, minus) for j in range(v))
            assert all(P.entry(j, i) in (one, minus) for j in range(v))


def test_the_width_of_walsh12_gathers_its_line_kinds_once():
    # one uint8 gather of the 16 MiB index gives the kinds of both axes
    # (128 MiB traced when each axis gathered int64 kinds, twice)
    W = walsh(12)
    W.idx
    tracemalloc.start()
    try:
        rep = jacket_width(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.is_jacket_form, rep.width, rep.pm1_rows, rep.pm1_cols) == (True, 2048, 4096, 4096)
    assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


JACKETS = {
    "k1": k1,
    "k3": lambda: k3(cyclotomic(6)),
    "k4": k4,
    **{f"walsh({t})": lambda t=t: walsh(t) for t in (2, 3)},
    **{f"jacketize_cbt({t})": lambda t=t: jacketize_cbt(t)[0] for t in (2, 3)},
    **{f"jacketize_dft({n})": lambda n=n: jacketize_dft(n, cyclotomic(2 * n))[0] for n in (2, 3, 4)},
}


@st.composite
def permuted_jackets(draw):
    """(M, P): a jacket matrix of order at most 8, k2(r) for a drawn r or
    one of JACKETS, and M under random row and column permutations."""
    name = draw(st.sampled_from(["k2"] + sorted(JACKETS)))
    if name == "k2":
        M = k2(draw(st.sampled_from([-3, -2, 2, 3, 5])))
    else:
        M = JACKETS[name]()
    perm = lambda: Permutation(tuple(draw(st.permutations(range(M.order)))))
    return M, permute(M, perm(), perm())


@settings(max_examples=60)
@given(case=permuted_jackets())
def test_a_permuted_jacket_keeps_its_width_and_its_witnesses_realise_the_border(case):
    M, P = case
    rep, base = jacket_width(P), jacket_width(M)
    assert rep.width == brute_width(P)
    assert (rep.width, rep.pm1_rows, rep.pm1_cols) == (base.width, base.pm1_rows, base.pm1_cols)
    J = permute(P, rep.row_witness, rep.col_witness)
    m, v = rep.width, P.order
    one, minus = P.ring.one(), P.ring.from_int(-1)
    assert all(J.entry(0, j) == one and J.entry(j, 0) == one for j in range(v))
    for i in list(range(1, m)) + list(range(v - m, v)):
        assert all(J.entry(i, j) in (one, minus) and J.entry(j, i) in (one, minus) for j in range(v))


@pytest.mark.parametrize(
    "mk",
    [
        lambda: walsh(1),
        lambda: walsh(2),
        lambda: walsh(3),
        lambda: k2(2),
        lambda: k2(3),
        lambda: k3(cyclotomic(6)),
        lambda: k4(),
        lambda: jacketize_cbt(2)[0],
        lambda: jacketize_cbt(3)[0],
        lambda: dagger(k1(), k1()),
    ],
)
def test_brute_width_agrees(mk):
    M = mk()
    assert brute_width(M) == jacket_width(M).width


def test_brute_width_order_cap():
    with pytest.raises(MatrixError):
        brute_width(walsh(4))


@pytest.mark.parametrize(
    "mk",
    [lambda: scalar_mul(-1, k4()), lambda: GMatrix.from_rows(rationals(), [[1, -1], [-1, -1]])],
)
def test_brute_width_without_a_border_arrangement(mk):
    # no row (or column) of either is all 1s, so no arrangement puts one
    # first and max_border ends with 0
    with pytest.raises(MatrixError, match="matrix has no jacket border arrangement"):
        brute_width(mk())


@pytest.mark.parametrize("t", range(2, 7))
def test_jacketize_cbt(t):
    J, (rowp, colp) = jacketize_cbt(t)
    assert is_jacket_form(J)
    assert equal(J, permute(cbt(t), rowp, colp))


def test_jacketize_cbt_t3_is_gbh():
    J, _ = jacketize_cbt(3)
    rep = verify_gbh(J)
    assert rep.is_gbh and rep.v == 8 and rep.w == 4


def test_jacketize_cbt_t1_rejected():
    with pytest.raises(MatrixError):
        jacketize_cbt(1)


def test_jacketize_dft_n1_identity():
    J, p = jacketize_dft(1, rationals())
    assert p.is_identity()
    assert equal(J, k1())


def test_jacketize_dft_2_is_k2():
    # the canonical order-4 root evaluates to -i; the complex-number i of the
    # K2(i) identity is therefore the negated canonical root
    ring = cyclotomic(4)
    J, _ = jacketize_dft(2, ring)
    i_complex = -ring.root_of_unity(4)
    assert equal(J, k2(i_complex, ring))


def test_jacketize_dft_3_is_k3():
    ring = cyclotomic(6)
    J, _ = jacketize_dft(3, ring)
    assert equal(J, k3(ring))


def test_jacketize_dft_matches_rjt_formula():
    ring = cyclotomic(10)
    J, _ = jacketize_dft(5, ring)
    assert equal(J, complex_rjt(5, ring.root_of_unity(10)))
    assert is_jacket_form(J)


def test_dagger_smallest():
    D = dagger(k1(), k1())
    assert is_jacket_form(D) and D.order == 4
    assert verify_gbh(D).is_gbh


def test_dagger_preconditions():
    ring = cyclotomic(4)
    with pytest.raises(MatrixError):
        dagger(k4(), dft_matrix(4, ring))  # right factor must be jacket form
    bad = permute(
        k1(), Permutation((1, 0)), Permutation.identity(2)
    )  # not normalised
    with pytest.raises(MatrixError):
        dagger(bad, k1())


def test_dagger_ex51_display():
    ring = cyclotomic(3)
    beta = ring.root_of_unity(3)
    one, m1, b, b2 = ring.one(), ring.from_int(-1), beta, beta * beta
    expected = GMatrix.from_rows(
        ring,
        [
            [one, one, one, one, one, one],
            [one, b, b, b2, b2, one],
            [one, b, -b, b2, -b2, m1],
            [one, b2, b2, b, b, one],
            [one, b2, -b2, b, -b, m1],
            [one, one, m1, one, m1, m1],
        ],
    )
    assert equal(dagger(b3(ring), k1(ring)), expected)


def test_dagger_central_cycle_gives_rjt():
    ring = cyclotomic(6)
    alpha = ring.root_of_unity(6)
    D = dagger(b3(ring), k1(ring))
    cyc = Permutation.from_cycle(6, (1, 4, 3, 2))
    assert equal(permute(D, cyc, cyc), complex_rjt(3, alpha ** 5))


def test_dagger_ex52_is_k6():
    ring = cyclotomic(3)
    for r in (ring.from_int(2), ring.from_int(3), -ring.root_of_unity(3)):
        assert equal(dagger(b3(ring), k2(r, ring)), k6(ring, r))


def test_dagger_always_jacket_form():
    ring = cyclotomic(12)
    for B in (b3(ring), dft_matrix(4, ring), walsh(2, ring)):
        for K in (k1(ring), k4(ring)):
            assert is_jacket_form(dagger(B, K))


def test_star_preserves_width():
    for M in (walsh(3), k2(2), k3(cyclotomic(6)), k4(), k6(cyclotomic(3), 2)):
        assert jacket_width(star(M)).width == jacket_width(M).width
        assert is_jacket_form(star(M))


def test_tensor_width_lower_bound():
    ring = cyclotomic(12)
    mats = [walsh(1, ring), walsh(2, ring), k2(2, ring), k3(ring), k4(ring)]
    for A in mats:
        for B in mats:
            mA = jacket_width(A).width
            mB = jacket_width(B).width
            assert jacket_width(tensor(A, B)).width >= 2 * mA * mB


def test_nontrivial_pm1_rows_sum_to_zero():
    for M in (k4(), k6(cyclotomic(3), 2), walsh(3)):
        ring = M.ring
        zero = ring.zero()
        one = ring.one()
        minus = ring.from_int(-1)
        for i in range(1, M.order):
            row = M.row(i)
            if all(e in (one, minus) for e in row):
                acc = ring.zero()
                for e in row:
                    acc = acc + e
                assert acc == zero


def test_perm_equivalent_reflexive():
    M = k4()
    rowp, colp = perm_equivalent(M, M)
    assert rowp.is_identity() and colp.is_identity()


def _ring_pair():
    ring = complex_ring()
    z = 0.1234565  # z and z + 4e-10 are equal within tol but key() rounds them apart
    return tuple(GMatrix.from_rows(ring, [[1, 1], [1, ring.element(complex(w))]]) for w in (z, z + 4e-10))


def test_perm_equivalent_compares_by_ring_equality():
    A, B = _ring_pair()
    assert equal(A, B)
    rowp, colp = perm_equivalent(A, B)
    assert equal(permute(A, rowp, colp), B)


def test_perm_equivalent_recovers_cbt_rotation():
    C = cbt(2)
    J, (rowp, colp) = jacketize_cbt(2)
    found = perm_equivalent(C, J)
    assert found is not None
    r, c = found
    assert equal(permute(C, r, c), J)


def test_perm_equivalent_s2_vs_k2_of_one_shape():
    # S_2 equals the r=1 instance of the centre-weighted pattern
    ring = rationals()
    s2 = walsh(2)
    found = perm_equivalent(s2, s2)
    assert found is not None


def test_perm_equivalent_none():
    assert perm_equivalent(walsh(2), k2(2)) is None


def test_perm_equivalent_exhausts_the_search():
    # the column signatures agree (each column holds two 1s and one -1), so
    # only the backtracking search over column assignments rules it out
    q = rationals()
    A = GMatrix.from_rows(q, [[1, 1, -1], [1, -1, 1], [-1, 1, 1]])
    B = GMatrix.from_rows(q, [[1, 1, 1], [1, -1, -1], [-1, 1, 1]])
    assert perm_equivalent(A, B) is None


def test_perm_equivalent_nontrivial_witness():
    M = k4()
    rp = Permutation((4, 2, 0, 6, 1, 3, 7, 5))
    cp = Permutation((3, 1, 5, 0, 7, 2, 4, 6))
    P = permute(M, rp, cp)
    found = perm_equivalent(M, P)
    assert found is not None
    r, c = found
    assert equal(permute(M, r, c), P)


def test_perm_equivalent_budget():
    ring = cyclotomic(12)
    A = tensor(k3(ring), k1(ring))
    B = permute(
        A,
        Permutation((5, 3, 8, 1, 11, 0, 7, 2, 9, 4, 10, 6)),
        Permutation((2, 6, 0, 10, 4, 8, 1, 11, 3, 7, 5, 9)),
    )
    with pytest.raises(SearchBudgetExceeded):
        perm_equivalent(A, B, node_budget=2)


def test_perm_equivalent_codes_exact_units_by_payload(monkeypatch):
    # on an exact ring the units are coded by their payloads, and on C by
    # one numpy comparison of each unit against all, with no RingElement
    # compared to another, so that a budget of 0 nodes bounds all the work:
    # the pairwise scan took 70 ms on dft(256) over Q(zeta_256), and about
    # 0.4 s on dft(512) over C, before the first node
    from ght.ring import RingElement

    matrices = [dft_matrix(256, cyclotomic(256)), dft_matrix(512, complex_ring())]
    calls = []
    eq = RingElement.__eq__
    monkeypatch.setattr(RingElement, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    for F in matrices:
        with pytest.raises(SearchBudgetExceeded):
            perm_equivalent(F, F, node_budget=0)
    assert calls == []


def test_perm_equivalent_bounds_its_set_up_by_the_index():
    # before the first node the search codes each index once, in uint8 for
    # a +-1 matrix, and keeps one signature per distinct column: walsh(11)
    # against a permuted copy traced 192.5 MiB when the columns and their
    # signatures were lists of Python ints
    rng = random.Random(11)
    A = walsh(11)
    B = permute(A, *(Permutation(tuple(rng.sample(range(A.order), A.order))) for _ in range(2)))
    A.idx, B.idx
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            perm_equivalent(A, B, node_budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_perm_equivalent_order_mismatch():
    with pytest.raises(MatrixError):
        perm_equivalent(walsh(1), walsh(2))


# --- the search held to fixed witnesses and node counts, and to a reference ---


def _affine(v, m, s):
    """i -> m i + s mod v, a permutation for m prime to v."""
    return Permutation(tuple((m * i + s) % v for i in range(v)))


def _shuffled(token, rows, cols, ring=None):
    A = from_token(token, ring)
    return A, permute(A, _affine(A.order, *rows), _affine(A.order, *cols))


_FAMILY_ROWS = [3, 41, 31, 7, 17, 27, 39, 29, 19, 43, 5, 15, 45, 35, 25, 1, 11, 21, 33, 23, 13, 37, 47, 9]
_FAMILY_ROWS += [20, 30, 40, 16, 6, 44, 32, 42, 4, 28, 18, 8, 26, 36, 46, 22, 12, 2, 38, 0, 10, 34, 24, 14]
_FAMILY_COLS = [5, 3, 1, 25, 27, 29, 0, 2, 4, 28, 26, 24, 30, 32, 34, 10, 8, 6, 11, 9, 7, 31, 33, 35]
_FAMILY_COLS += [12, 14, 16, 40, 38, 36, 41, 39, 37, 13, 15, 17, 23, 21, 19, 43, 45, 47, 18, 20, 22, 46, 44, 42]
_WALSH5_ROWS = [3, 4, 9, 18, 24, 15, 30, 29, 27, 12, 17, 10, 16, 23, 6, 21]
_WALSH5_ROWS += [20, 19, 2, 25, 31, 8, 13, 14, 28, 11, 26, 1, 7, 0, 5, 22]
_WALSH5_COLS = [7, 0, 1, 26, 2, 25, 8, 31, 3, 4, 29, 30, 22, 5, 28, 11]
_WALSH5_COLS += [6, 21, 12, 27, 19, 20, 13, 14, 18, 9, 24, 15, 23, 16, 17, 10]

# (pair, witness images or None, the smallest node budget that decides it)
_GOLDEN = {
    "k4-permuted": (
        lambda: (k4(), permute(k4(), Permutation((4, 2, 0, 6, 1, 3, 7, 5)), Permutation((3, 1, 5, 0, 7, 2, 4, 6)))),
        ([4, 6, 3, 2, 7, 0, 1, 5], [3, 0, 2, 1, 4, 5, 7, 6]),
        9,
    ),
    "back-circulant-k4": (
        lambda: (normalize(back_circulant(QuadriphaseSequence((0, 0, 0, 1, 2, 0, 2, 1))))[0], k4()),
        ([0, 3, 5, 1, 7, 4, 2, 6], [0, 1, 2, 3, 7, 6, 5, 4]),
        11,
    ),
    "3x3-exhausted": (
        lambda: tuple(
            GMatrix.from_rows(rationals(), rows)
            for rows in ([[1, 1, -1], [1, -1, 1], [-1, 1, 1]], [[1, 1, 1], [1, -1, -1], [-1, 1, 1]])
        ),
        None,
        15,
    ),
    "k4-walsh3-signatures": (lambda: (k4(), walsh(3, cyclotomic(4))), None, 0),
    "k6:2": (
        lambda: _shuffled("k6:2", (5, 1), (7, 2)),
        ([1, 11, 6, 0, 10, 5, 3, 4, 2, 9, 7, 8], [2, 4, 9, 3, 5, 10, 0, 11, 1, 6, 8, 7]),
        15,
    ),
    "family:1,1,1,3,2": (lambda: _shuffled("family:1,1,1,3,2", (7, 3), (11, 5)), (_FAMILY_ROWS, _FAMILY_COLS), 119),
    "cbt:3": (
        lambda: _shuffled("cbt:3", (3, 1), (5, 2)),
        ([1, 4, 7, 2, 6, 3, 0, 5], [2, 3, 0, 1, 6, 7, 4, 5]),
        8,
    ),
    "complex": (_ring_pair, ([0, 1], [0, 1]), 2),
    "walsh:5": (lambda: _shuffled("walsh:5", (5, 3), (13, 7)), (_WALSH5_ROWS, _WALSH5_COLS), 240),
    "dft:8-over-C": (
        lambda: _shuffled("dft:8", (3, 1), (5, 2), complex_ring()),
        ([1, 2, 3, 4, 5, 6, 7, 0], [2, 1, 0, 7, 6, 5, 4, 3]),
        11,
    ),
}


@pytest.mark.parametrize("name", _GOLDEN)
def test_perm_equivalent_keeps_its_witnesses_and_node_counts(name):
    # each pair's witness (or None) and the fewest nodes that decide it,
    # which `ght equiv` prints and `--budget` counts: a change to the branch
    # order, the pruning or the row matching moves them
    build, want, budget = _GOLDEN[name]
    A, B = build()
    found = perm_equivalent(A, B, node_budget=budget)
    assert (found and tuple(list(p.image) for p in found)) == want
    if budget:
        with pytest.raises(SearchBudgetExceeded, match=f"^node budget {budget - 1} exceeded$"):
            perm_equivalent(A, B, node_budget=budget - 1)


def test_perm_equivalent_searches_past_the_recursion_limit():
    # walsh(10) against itself assigns 1024 columns, one stack frame each,
    # and finds the identity; a recursive search raised RecursionError
    W = walsh(10)
    rowp, colp = perm_equivalent(W, walsh(10))
    assert rowp.is_identity() and colp.is_identity()


def _reference_equivalent(A, B):
    """The first column assignment, in itertools.permutations order, under
    which A's rows and B's rows are one multiset of unit codes and the rows,
    matched in order, give permute(A, sigma, tau) == B; brute force."""
    v, units = A.order, []

    def code(u):
        for k, w in enumerate(units):
            if w == u:
                return k
        units.append(u)
        return len(units) - 1

    a = [[code(A.entry(i, j)) for j in range(v)] for i in range(v)]
    b = [tuple(code(B.entry(i, j)) for j in range(v)) for i in range(v)]
    for assign in itertools.permutations(range(v)):
        arows = [tuple(row[c] for c in assign) for row in a]
        if sorted(arows) != sorted(b):
            continue
        rimg, free = [0] * v, list(range(v))
        for brow, key in enumerate(b):
            i = next(i for i in free if arows[i] == key)
            free.remove(i)
            rimg[i] = brow
        cimg = [0] * v
        for bcol, acol in enumerate(assign):
            cimg[acol] = bcol
        rowp, colp = Permutation(tuple(rimg)), Permutation(tuple(cimg))
        if equal(permute(A, rowp, colp), B):
            return rowp, colp
    return None


@pytest.mark.parametrize("ring", [cyclotomic(4), complex_ring()], ids=["Q4", "C"])
def test_perm_equivalent_matches_a_brute_force_reference(ring):
    # seeded pairs of order <= 6 over i's powers: three in five a permuted
    # copy, the rest drawn at random from two units, often equivalent
    rng = random.Random(33)
    powers = ring.root_powers(4)
    for _ in range(150):
        v = rng.randint(1, 6)
        alphabet = powers if rng.random() < 0.6 else rng.sample(powers, 2)
        draw = lambda: GMatrix.from_rows(ring, [[rng.choice(alphabet) for _ in range(v)] for _ in range(v)])
        A = draw()
        if alphabet is powers:
            rowp, colp = (Permutation(tuple(rng.sample(range(v), v))) for _ in range(2))
            B = permute(A, rowp, colp)
        else:
            B = draw()
        found, want = perm_equivalent(A, B), _reference_equivalent(A, B)
        assert found == want, (A.rows(), B.rows())


def test_a_failed_witness_lets_the_search_go_on_over_c(monkeypatch):
    # on C a unit codes as the first unit within tol of it, so 1 + 0.8 tol
    # and 1 - 0.8 tol both code as 1 though they lie 1.6 tol apart: the
    # first full assignment matches the rows by code, its witness fails
    # entry by entry, and the search goes on to the column swap, whose
    # witness holds within tol. On an exact backend codes are payloads and
    # no witness fails.
    ring = complex_ring()
    one, up, down = (ring.element(1 + d * ring.tol) for d in (0, 0.8, -0.8))
    witnesses, same = [], jacket.equal
    monkeypatch.setattr(jacket, "equal", lambda A, B: witnesses.append(same(A, B)) or witnesses[-1])
    A = GMatrix.from_rows(ring, [[one, up], [one, one]])
    B = GMatrix.from_rows(ring, [[one, down], [one, one]])
    rowp, colp = perm_equivalent(A, B)
    assert witnesses == [False, True] and rowp.is_identity() and colp.image == (1, 0)
