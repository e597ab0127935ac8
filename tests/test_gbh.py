"""GBH verification, row sums, DFT and B3 constructors."""

import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_transform import RINGS, trees, walks

from ght import (
    DftNode,
    GMatrix,
    Leaf,
    Permutation,
    PermutedNode,
    b3,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    family,
    k1,
    k3,
    normalize,
    prime_field,
    quadratic_field,
    rationals,
    row_sums,
    tensor,
    verify_gbh,
    walsh,
    k2,
    k4,
    mat_mul,
    permute,
)
from ght import gbh
from ght.transform import Signal, fast_apply, ght, tree_cost
from ght.ring import RingError, is_prime


def test_walsh_s3():
    rep = verify_gbh(walsh(3))
    assert rep.is_gbh and rep.v == 8 and rep.w == 2 and rep.char_check


def test_b3_is_gbh_3_3():
    rep = verify_gbh(b3(cyclotomic(3)))
    assert rep.is_gbh and rep.v == 3 and rep.w == 3


def test_b3_rows_display():
    ring = cyclotomic(3)
    beta = ring.root_of_unity(3)
    B = b3(ring)
    assert B.row(1) == [ring.one(), beta, beta * beta]
    assert B.row(2) == [ring.one(), beta * beta, beta]


def test_b3_over_gf25():
    f = quadratic_field(5)
    rep = verify_gbh(b3(f))
    assert rep.is_gbh and rep.char_check  # char 5 does not divide 3


def test_all_ones_is_not_gbh():
    M = GMatrix.from_rows(rationals(), [[1, 1], [1, 1]])
    rep = verify_gbh(M)
    assert not rep.is_gbh
    assert (0, 1) in rep.failures and (1, 0) in rep.failures


def test_char_divides_order_fails():
    # order 3 over GF(3): the characteristic check must reject it
    from ght.ring import prime_field

    f = prime_field(3)
    M = GMatrix.from_rows(f, [[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    rep = verify_gbh(M)
    assert not rep.char_check and not rep.is_gbh


def test_row_sums_s2():
    sums, inv_sums = row_sums(walsh(2))
    q = rationals()
    assert sums == [q.from_int(4), q.zero(), q.zero(), q.zero()]
    assert inv_sums == [q.from_int(4), q.zero(), q.zero(), q.zero()]


def test_row_sums_f6():
    F = dft_matrix(6, cyclotomic(6))
    sums, inv_sums = row_sums(F)
    zero = F.ring.zero()
    assert all(s == zero for s in sums[1:])
    assert all(s == zero for s in inv_sums[1:])


def test_row_sums_k6():
    from ght import k6

    K = k6(cyclotomic(3), 2)
    sums, inv_sums = row_sums(K)
    zero = K.ring.zero()
    assert all(s == zero for s in sums[1:])
    assert all(s == zero for s in inv_sums[1:])


def test_dft2_is_s1():
    assert equal(dft_matrix(2, rationals()), k1())


def test_dft4_rows():
    ring = cyclotomic(4)
    F = dft_matrix(4, ring)
    w = ring.root_of_unity(4)
    assert F.row(1) == [ring.one(), w, w ** 2, w ** 3]
    assert verify_gbh(F).is_gbh


def test_dft6_verifies():
    rep = verify_gbh(dft_matrix(6, cyclotomic(6)))
    assert rep.is_gbh and rep.v == 6 and rep.w == 6


def test_dft_symmetric_and_normalised():
    for v in (3, 5, 8):
        F = dft_matrix(v, cyclotomic(v))
        assert F.is_normalised()
        for j in range(v):
            for k in range(v):
                assert F.entry(j, k) == F.entry(k, j)


@pytest.mark.parametrize(
    "v, ring",
    [(v, cyclotomic(v)) for v in (1, 6, 8, 24)] + [(32, prime_field(97)), (16, complex_ring())],
)
def test_dft_unit_table_matches_keyed_construction(v, ring):
    # the construction that keyed all v^2 entries through from_rows
    omega = ring.root_of_unity(v)
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    old = GMatrix.from_rows(ring, [[powers[(j * k) % v] for k in range(v)] for j in range(v)])
    F = dft_matrix(v, ring)
    assert [u.payload for u in F.units] == [u.payload for u in old.units]
    assert F.idx.dtype == old.idx.dtype and (F.idx == old.idx).all()


def test_dft_without_root_raises():
    with pytest.raises(RingError):
        dft_matrix(3, rationals())


def test_tensor_closure():
    ring = cyclotomic(12)
    pairs = [(k2(2, ring), k4(ring)), (b3(ring), dft_matrix(4, ring)), (walsh(2, ring), b3(ring))]
    for A, B in pairs:
        assert verify_gbh(A).is_gbh and verify_gbh(B).is_gbh
        assert verify_gbh(tensor(A, B)).is_gbh


def test_normalize_preserves_gbh_on_scaled_dft():
    from ght import scalar_mul

    ring = cyclotomic(6)
    F = dft_matrix(6, ring)
    M = scalar_mul(ring.root_of_unity(6), F)
    assert verify_gbh(M).is_gbh
    N, _, _ = normalize(M)
    assert verify_gbh(N).is_gbh and N.is_normalised()


def test_entry_order_bound_reports_unknown():
    # entries of infinite order (2 in Q) make w unreportable
    rep = verify_gbh(k2(2))
    assert rep.is_gbh and rep.w is None


def test_report_text_stable_keys():
    text = verify_gbh(walsh(2)).to_text()
    keys = [line.split(":")[0] for line in text.splitlines()]
    assert keys == ["is-gbh", "order", "entry-group-order", "char-check", "failure-count", "method"]
    assert text.splitlines()[0] == "is-gbh: true"
    assert "entry-group-order: 2" in text
    # walsh(2) carries its tensor tree, whose one distinct leaf decides it
    assert text.splitlines()[-1] == "method: tree"


def _family():
    return family(1, 1, 1, 3, 2, cyclotomic(6))[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: walsh(9),
        lambda: cbt(6, cyclotomic(4)),
        lambda: dft_matrix(24, cyclotomic(24)),
        lambda: dft_matrix(32, prime_field(97)),
        lambda: tensor(k3(quadratic_field(5)), k3(quadratic_field(5))),
        lambda: dft_matrix(16, complex_ring()),
        _family,
    ],
    ids=["walsh9", "cbt6", "dft24", "dft32-gf97", "k3k3-gf25", "dft16-complex", "family-11132"],
)
def test_catalog_matrices_take_the_numeric_lane(build):
    # a trusted tree of two or more leaves is decided by its leaves on an
    # exact backend; the product M M* takes the numeric lane otherwise
    M = build()
    rep = verify_gbh(M)
    by_tree = M.ring.is_exact and M.tree is not None and len(M.tree.leaves()) > 1
    assert rep.is_gbh and rep.method == ("tree" if by_tree else "numeric-lane")


def test_matrix_past_the_float_bound_takes_the_numeric_lane():
    # K2(2^30) has units +-2^30, M* has +-2^-30: v * 2^30 * 2^30 > 2^53,
    # so the lane multiplies Python integers
    rep = verify_gbh(k2(2**30))
    assert rep.is_gbh and rep.w is None and rep.method == "numeric-lane"
    assert rep.to_text().splitlines()[-1] == "method: numeric-lane"


def _walk(u, bound):
    """Reference (order, inverse) of the unit u from its powers u, u^2, ...,
    u^bound, one multiplication at a time: the order is the first k with
    u^k == 1 and the inverse u^(k-1). Past the bound the order is None and
    the inverse computed, as always on the complex backend, where u^(k-1) is
    only within tol of the inverse."""
    one = u.ring.one()
    before, acc = one, u
    for k in range(1, bound + 1):
        if acc == one:
            return k, before if u.ring.is_exact else u.inverse()
        before, acc = acc, acc * u
    return None, u.inverse()


def _walk_bound(M):
    """The walk's bound: unit_order_hint() powers on an exact backend, the
    order of its group of roots of unity; 2 * v * hint on C."""
    hint = M.ring.unit_order_hint()
    return hint if M.ring.is_exact else 2 * M.order * hint


def _orders(M):
    ring = M.ring
    if ring.is_exact:
        return [ring._order(u.payload) for u in M.units]
    z = np.array([u.payload for u in M.units])
    return gbh._complex_orders(z, _walk_bound(M), ring.spec.tol)


# the 16 sources of the verify-mix benchmark workload
VERIFY_MIX = {
    **{f"walsh{t}": (lambda t=t: walsh(t)) for t in range(6, 10)},
    **{f"cbt{t}": (lambda t=t: cbt(t, cyclotomic(4))) for t in range(3, 7)},
    **{f"dft{v}": (lambda v=v: dft_matrix(v, cyclotomic(v))) for v in (8, 12, 16, 24)},
    "dft32-gf97": lambda: dft_matrix(32, prime_field(97)),
    "k3k3-gf25": lambda: tensor(k3(quadratic_field(5)), k3(quadratic_field(5))),
    "dft16-complex": lambda: dft_matrix(16, complex_ring()),
    "family-11132": _family,
}


@pytest.mark.parametrize("name", VERIFY_MIX)
def test_orders_and_inverses_match_the_walk(name):
    M = VERIFY_MIX[name]()
    walked = [_walk(u, _walk_bound(M)) for u in M.units]
    assert _orders(M) == [order for order, _ in walked]
    assert [u.inverse() for u in M.units] == [inverse for _, inverse in walked]


def _reference_report(M):
    """(is_gbh, v, w, char_check, failures) from the walk's orders and
    inverses and an entrywise comparison of M M* with v I."""
    ring, v = M.ring, M.order
    walked = [_walk(u, _walk_bound(M)) for u in M.units]
    orders = [order for order, _ in walked]
    P = mat_mul(M, GMatrix._table(ring, [inverse for _, inverse in walked], M.idx.T))
    is_v = np.array([u == ring.from_int(v) for u in P.units])
    is_zero = np.array([u == ring.zero() for u in P.units])
    bad = ~is_zero[P.idx]
    np.fill_diagonal(bad, ~is_v[np.diag(P.idx)])
    failures = [divmod(k, v) for k in np.flatnonzero(bad).tolist()]
    ch = ring.characteristic()
    char_check = ch == 0 or v % ch != 0
    w = None if None in orders else math.lcm(*orders)
    return (not failures and char_check, v, w, char_check, failures)


@pytest.mark.parametrize("planted", [False, True], ids=["plain", "planted"])
@pytest.mark.parametrize("name", VERIFY_MIX)
def test_report_matches_the_walk_reference(name, planted):
    M = VERIFY_MIX[name]()
    if planted:
        # -1 lies in every source's entry group, so w stays and GBH breaks
        rows = M.rows()
        i, j = M.order // 3, M.order // 2
        rows[i][j] = -rows[i][j]
        M = GMatrix.from_rows(M.ring, rows)
    rep = verify_gbh(M)
    got = (rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures)
    assert got == _reference_report(M)
    # the planted matrix is rebuilt from its rows, without a tree
    by_tree = M.ring.is_exact and M.tree is not None and len(M.tree.leaves()) > 1
    assert rep.is_gbh != planted and rep.method == ("tree" if by_tree else "numeric-lane")


def test_complex_orders_stop_at_the_bound():
    # dft8-complex searches 2 * 8 * 2 = 32 powers: order 32 is found, 33 is not
    z = np.array([cmath.exp(-2j * cmath.pi / 32), cmath.exp(-2j * cmath.pi / 33), 1, -1])
    assert gbh._complex_orders(z, 32, 1e-9) == [32, None, 1, 2]
    rep = verify_gbh(dft_matrix(8, complex_ring()))
    assert rep.w == 8


def test_complex_orders_in_blocks_match_the_walk():
    # 512 units take blocks of 128 powers, so most orders lie past the first
    M = dft_matrix(512, complex_ring())
    assert _orders(M) == [_walk(u, _walk_bound(M))[0] for u in M.units]


SMALL_PRIMES = [p for p in range(2, 200) if is_prime(p)]


def _quadratic(p):
    """GF(p^2) on the first irreducible y^2 + c1*y + c0 in (c1, c0) order."""
    for c1, c0 in itertools.product(range(p), repeat=2):
        try:
            return quadratic_field(p, (c0, c1, 1))
        except RingError:
            pass


@st.composite
def drawn_units(draw):
    """A unit of GF(p) or GF(p^2) with p < 200, or of Q(zeta_w) with
    w <= 40: there a root of unity +-x^k, or a sum of small multiples of
    powers of x, which is rarely one."""
    kind = draw(st.sampled_from(("prime", "quadratic", "cyclotomic")))
    if kind == "cyclotomic":
        ring = cyclotomic(draw(st.integers(1, 40)))
        x = ring.root_of_unity(ring.w)
        if draw(st.booleans()):
            return draw(st.sampled_from((1, -1))) * x ** draw(st.integers(0, ring.w - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        u = sum((c * x**k for k, c in enumerate(coeffs)), ring.zero())
        assume(not u.is_zero())
        return u
    p = draw(st.sampled_from(SMALL_PRIMES))
    if kind == "prime":
        return prime_field(p).from_int(draw(st.integers(1, p - 1)))
    ring = _quadratic(p)
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((a, b) != (0, 0))
    return ring.element((a, b))


@settings(max_examples=150)
@given(drawn_units())
def test_orders_and_inverses_match_the_walk_on_drawn_units(u):
    order, inverse = _walk(u, u.ring.unit_order_hint())
    assert u.ring._order(u.payload) == order
    assert u.inverse() == inverse


def _primitive_root(p, primes):
    """The least g whose order mod p is p - 1, given the primes of p - 1."""
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes)
    )


@pytest.mark.parametrize(
    "p, primes",
    [
        (1000003, (2, 3, 166667)),
        (2**61 - 1, (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)),
    ],
)
def test_large_prime_2x2_verifies_quickly(p, primes):
    # the walk took p - 1 multiplications: 3.2 s at p = 1000003
    n = p - 1
    for q in primes:
        assert n % q == 0
        while n % q == 0:
            n //= q
    assert n == 1  # primes are all the primes of p - 1
    f = prime_field(p)
    g = f.from_int(_primitive_root(p, primes))
    M = GMatrix.from_rows(f, [[f.one(), g], [f.one(), -g]])
    start = time.perf_counter()
    rep = verify_gbh(M)
    assert time.perf_counter() - start < 1
    assert rep.is_gbh and rep.w == p - 1
    # w is the exact order of g, checked by pow alone
    assert pow(g.payload, rep.w, p) == 1
    assert all(pow(g.payload, rep.w // q, p) != 1 for q in primes)


# --- the tree route against the product route ---


def _gbh_leaves(ring):
    """GBH matrices of orders 2 to 6 over the ring, where they exist."""
    leaves = [walsh(1, ring)]
    for v in (3, 4, 6):
        try:
            leaves.append(dft_matrix(v, ring))
        except RingError:
            pass
    return leaves


@st.composite
def gbh_trees(draw, ring, depth, cap):
    """A matrix built by tensor and permute, as trees() builds one, from
    leaves that are mostly GBH and sometimes one of trees()'s leaves."""
    node = draw(st.sampled_from(("leaf", "tensor", "tensor", "permuted"))) if depth else "leaf"
    if node == "leaf":
        fits = [L for L in _gbh_leaves(ring) if L.order <= cap]
        if not fits or draw(st.integers(0, 5)) == 0:
            return draw(trees(ring, 0, cap)).matrix
        return draw(st.sampled_from(fits))
    if node == "permuted":
        child = draw(gbh_trees(ring, depth - 1, cap))
        rowp, colp = (draw(st.permutations(range(child.order))) for _ in range(2))
        return permute(child, Permutation(tuple(rowp)), Permutation(tuple(colp)))
    left = draw(gbh_trees(ring, depth - 1, cap))
    return tensor(left, draw(gbh_trees(ring, depth - 1, cap // left.order)))


@st.composite
def verify_cases(draw):
    """(M, stale): the expansion of a tree of test_transform.walks (leaves
    rarely GBH) or of gbh_trees, and whether an entry was then multiplied by
    -1 under the kept tree, which GMatrix(..., tree=) leaves unchecked."""
    if draw(st.booleans()):
        M = draw(walks())[0].expand()
    else:
        M = draw(gbh_trees(draw(st.sampled_from(RINGS)), 3, 64))
    assume(M.order >= 2)
    stale = M.tree is not None and draw(st.booleans())
    if stale:
        i, j = draw(st.integers(0, M.order - 1)), draw(st.integers(0, M.order - 1))
        rows = M.rows()
        rows[i][j] = -rows[i][j]
        M = GMatrix.from_rows(M.ring, rows, tree=M.tree)
    return M, stale


@settings(max_examples=150, deadline=None)
@given(verify_cases())
def test_tree_route_matches_the_product_reference(case):
    M, stale = case
    rep = verify_gbh(M)
    # the product route: the same matrix without a tree
    ref = verify_gbh(GMatrix._table(M.ring, M.units, M.idx))
    assert ref.method != "tree"
    fields = lambda r: (r.is_gbh, r.v, r.w, r.char_check, r.failures)
    assert fields(rep) == fields(ref)
    leaves = M.tree.leaves() if M.tree is not None else []
    by_tree = M.ring.is_exact and not stale and len(leaves) > 1 and not rep.failures
    assert rep.method == "tree" if by_tree else rep.method != "tree"


def test_unchecked_trees_never_take_the_tree_route():
    # a correct tree given to the constructors is as unchecked as a stale one
    W = walsh(3)
    s1 = np.array([[1, 1], [1, -1]])
    sylvester = np.kron(np.kron(s1, s1), s1)
    correct = (
        GMatrix(W.ring, sylvester, tree=W.tree),
        GMatrix.from_rows(W.ring, W.rows(), tree=W.tree),
    )
    for M in correct:
        assert not M.tree_trusted
        assert verify_gbh(M).method == "numeric-lane"
    # the negative of verify-mix: one entry negated under the kept tree
    a = sylvester.copy()
    a[2, 5] = -a[2, 5]
    rep = verify_gbh(GMatrix(W.ring, a, tree=W.tree))
    assert not rep.is_gbh and rep.failures and rep.method == "numeric-lane"
    # permute and tensor keep the trust of their inputs
    ident = Permutation.identity(8)
    P = permute(GMatrix(W.ring, a, tree=W.tree), ident, ident)
    assert not P.tree_trusted and verify_gbh(P).method == "numeric-lane"
    assert not tensor(P, walsh(1)).tree_trusted
    assert tensor(W, walsh(1)).tree_trusted and permute(W, ident, ident).tree_trusted


def test_a_failing_leaf_lists_the_product_failures():
    # K2(1) is not GBH: its leaf fails, and the product lists the positions
    bad = GMatrix.from_rows(rationals(), [[1, 1], [1, 1]])
    M = tensor(walsh(2), bad)
    rep = verify_gbh(M)
    assert not rep.is_gbh and rep.method == "numeric-lane"
    assert (rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures) == _reference_report(M)


def test_walsh12_verifies_through_one_leaf():
    W = walsh(12)
    start = time.perf_counter()
    rep = verify_gbh(W)
    assert time.perf_counter() - start < 0.1  # the 4096^2 product took 1.1 s
    assert rep.is_gbh and rep.w == 2 and rep.method == "tree"


def _gf_with_roots(v):
    """GF(p) for the least prime p with v | p - 1."""
    return prime_field(next(p for p in range(v + 1, 10**4, v) if is_prime(p)))


def _prime_power(n):
    return len([p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]) <= 1


@pytest.mark.parametrize("v", range(1, 61))
def test_good_thomas_trees_expand_to_the_dft(v):
    for ring in (cyclotomic(v), complex_ring(), _gf_with_roots(v)):
        F = dft_matrix(v, ring)
        assert isinstance(F.tree, DftNode) and F.tree_trusted
        leaves = F.tree.leaves()
        assert math.prod(L.order for L in leaves) == v
        assert all(_prime_power(L.order) for L in leaves)
        # coprime leaf orders, each the table of dft_matrix, to the last bit on C
        assert len({L.order for L in leaves}) == len(leaves) or v == 1
        for L in leaves:
            D = dft_matrix(L.order, ring)
            assert [u.payload for u in L.units] == [u.payload for u in D.units]
            assert np.array_equal(L.idx, D.idx)
        assert equal(F.tree.tree.expand(), F) and F.tree.expand() is not F


def test_good_thomas_walk_on_c_is_closer_to_the_fft():
    # omega^k carries about k rounding errors; the leaves' powers stay short
    v = 2310  # 2 * 3 * 5 * 7 * 11
    xs = [(7 * k) % 19 - 9 for k in range(v)]
    F, x = dft_matrix(v, complex_ring()), Signal.from_ints(complex_ring(), xs)
    fft = np.fft.fft(np.array(xs, dtype=complex))
    err = lambda y: np.abs(np.array([e.payload for e in y.elements]) - fft).max()
    assert err(fast_apply(F.tree, x)[0]) < 1e-10 < err(ght(F, x))  # 5e-12 and 3e-10


def test_rjt_stays_one_leaf_in_family_trees():
    M = family(1, 1, 1, 3, 2, cyclotomic(6))[0]
    assert [L.order for L in M.tree.leaves()] == [2, 4, 6]
    assert tree_cost(M.tree).mul == 48 * (2 + 4 + 6)
    assert isinstance(M.tree.right, PermutedNode) and isinstance(M.tree.right.child, Leaf)
