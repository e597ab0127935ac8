"""GBH verification, row sums, DFT and B3 constructors."""

import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_transform import RINGS, _units, doubling_walks, trees, walks

from ght import (
    DftNode,
    DoubleNode,
    GMatrix,
    Leaf,
    Permutation,
    PermutedNode,
    TensorNode,
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
    star,
)
from ght import gbh, matrix
from ght.matrix import _lane_of, tree_matches
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
    # the construction that keyed all v^2 entries through from_rows, on the
    # powers of omega: products on the exact backends, and on C each power
    # exp(-2 pi i k / v) itself
    omega = ring.root_of_unity(v)
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    if not ring.is_exact:
        powers = [ring.element(cmath.exp(-2j * cmath.pi * k / v)) for k in range(v)]
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


def _proves(tree, v, exact):
    """Whether verify_gbh's tree route decides a matrix of order v with this
    tree: a DFT node by its generator, a leaf on an exact backend where it
    is smaller than v and GBH by the walk reference (on C no leaf passes),
    and any other node by the nodes under it."""
    if isinstance(tree, DftNode):
        return True
    if isinstance(tree, Leaf):
        return exact and tree.order < v and _reference_report(tree.matrix)[0]
    kids = [getattr(tree, name) for name in ("child", "left", "right", "top", "bottom") if hasattr(tree, name)]
    return bool(kids) and all(_proves(kid, v, exact) for kid in kids)


def _method(M):
    """The route that verify_gbh names for a GBH matrix M: "generator" where
    its tree is a DftNode under permuted nodes alone, "tree" where its tree
    proves it (_proves), else "numeric-lane". On C this holds where the
    units meet the rounding bound, as every complex DFT here does at the
    default tol."""
    tree = M.tree
    while isinstance(tree, PermutedNode):
        tree = tree.child
    if isinstance(tree, DftNode):
        return "generator"
    by_tree = M.tree is not None and _proves(M.tree, M.order, M.ring.is_exact)
    return "tree" if by_tree else "numeric-lane"


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
    # a DFT is decided by its generator and a tree of two or more leaves by
    # its leaves on an exact backend; the product M M* takes the numeric
    # lane otherwise
    M = build()
    rep = verify_gbh(M)
    assert rep.is_gbh and rep.method == _method(M)


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
    # the planted matrix is rebuilt from its rows, without a tree; a DFT's
    # generator report is held to the same walk reference
    assert rep.is_gbh != planted and rep.method == _method(M)


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
    rarely GBH), of gbh_trees or of test_transform.doubling_walks, and
    whether an entry was then multiplied by -1 under the kept tree, which
    GMatrix(..., tree=) then drops."""
    source = draw(st.sampled_from(("walk", "gbh", "double")))
    if source == "walk":
        M = draw(walks())[0].expand()
    elif source == "gbh":
        M = draw(gbh_trees(draw(st.sampled_from(RINGS)), 3, 64))
    else:
        M = draw(doubling_walks())[0].expand()
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
    by_tree = not stale and M.tree is not None and _proves(M.tree, M.order, M.ring.is_exact)
    if _method(M) == "generator":
        # a stale tree is dropped, so only a DFT's own tree gets here
        assert not stale and rep.method == "generator"
    else:
        assert rep.method == "tree" if by_tree else rep.method != "tree"


def test_constructor_trees_take_the_tree_route_only_when_they_match():
    # a correct tree given to the constructors is kept and decides the matrix
    W = walsh(3)
    s1 = np.array([[1, 1], [1, -1]])
    sylvester = np.kron(np.kron(s1, s1), s1)
    correct = (
        GMatrix(W.ring, sylvester, tree=W.tree),
        GMatrix.from_rows(W.ring, W.rows(), tree=W.tree),
    )
    for M in correct:
        assert M.tree is W.tree
        assert verify_gbh(M).method == "tree"
    # the negative of verify-mix: one entry negated under the kept tree,
    # which is then dropped
    a = sylvester.copy()
    a[2, 5] = -a[2, 5]
    S = GMatrix(W.ring, a, tree=W.tree)
    rep = verify_gbh(S)
    assert S.tree is None and not rep.is_gbh and rep.failures and rep.method == "numeric-lane"
    # permute and tensor of it build trees that expand to their matrices, and
    # its failing leaf sends them to the product
    ident = Permutation.identity(8)
    for M in (permute(S, ident, ident), tensor(walsh(1), S)):
        rep = verify_gbh(M)
        assert tree_matches(M.tree, M) and not rep.is_gbh and rep.method == "numeric-lane"


def test_a_failing_leaf_lists_the_product_failures():
    # K2(1) is not GBH: its leaf fails, and the product lists the positions
    bad = GMatrix.from_rows(rationals(), [[1, 1], [1, 1]])
    M = tensor(walsh(2), bad)
    rep = verify_gbh(M)
    assert not rep.is_gbh and rep.method == "numeric-lane"
    assert (rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures) == _reference_report(M)


def _dot_failures(M):
    """The positions of M M* that differ from v I, in row-major order, entry
    by entry: row i of M against the inverses of row j by RingContext.dot,
    compared with v or 0 by the ring's == (within tol on C)."""
    ring, v, rows = M.ring, M.order, M.rows()
    target = lambda i, j: ring.from_int(v) if i == j else ring.zero()
    pairs = lambda i, j: zip(rows[i], (u.inverse() for u in rows[j]))
    return [(i, j) for i in range(v) for j in range(v) if ring.dot(pairs(i, j)) != target(i, j)]


@st.composite
def planted(draw):
    """(M, tree-less): a GBH table of order <= 12 over one of the five
    backends with one entry times a unit other than 1, alone (tree-less)
    or as the one failing leaf of a tensor tree with a walsh factor."""
    ring = draw(st.sampled_from(RINGS))
    build, n = draw(st.sampled_from([(walsh, t) for t in (1, 2, 3)] + [(dft_matrix, a) for a in (3, 4, 6)]))
    try:
        rows = build(n, ring).rows()
    except RingError:  # no root of that order in the ring
        assume(False)
    a = len(rows)
    i, j = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
    rows[i][j] = rows[i][j] * draw(st.sampled_from(_units(ring)[1:]))
    P = GMatrix.from_rows(ring, rows)
    s = draw(st.integers(0, 2 if a <= 3 else 1 if a <= 6 else 0))
    if not s:
        return P, True
    G = walsh(s, ring)
    return (tensor(G, P) if draw(st.booleans()) else tensor(P, G)), False


@settings(max_examples=120)
@given(planted())
def test_failure_positions_match_the_entrywise_product(case):
    # the product's in-place v I check reports the failing entries, in
    # row-major order, that an entry-by-entry product finds, from a table
    # and from a tree whose one failing leaf sends it to the product
    M, tree_less = case
    rep = verify_gbh(M)
    assert (M.tree is None) == tree_less and rep.method == "numeric-lane"
    assert rep.failures == _dot_failures(M) and rep.failures and not rep.is_gbh
    # the diagonal is subtracted on a view of the product's planes
    S, v = star(M), M.order
    planes = gbh._lane_apply(M, *_lane_of(S).batch(S.idx))[0]
    assert np.shares_memory(planes.reshape(v * v, -1), planes)


def test_each_verify_proves_its_leaf_once_from_a_kept_batch(monkeypatch):
    # two permutations of a walsh(8) tree over one fresh 2 x 2 leaf: each
    # verify runs the leaf's product once, as no verdict outlives a call,
    # and only the first gathers star(L)'s table as a lane batch, which
    # star(L)'s lane then keeps, read-only
    L = GMatrix.from_rows(rationals(), [[1, 1], [1, -1]])
    W = L
    for _ in range(7):
        W = tensor(L, W)
    batches = []
    lane_batch = matrix._lane_batch
    monkeypatch.setattr(matrix, "_lane_batch", lambda *a: batches.append(a) or lane_batch(*a))
    calls = _lane_calls(monkeypatch)
    rng = np.random.default_rng(8)
    for k in (1, 2):
        rowp, colp = (Permutation(tuple(rng.permutation(256).tolist())) for _ in range(2))
        rep = verify_gbh(permute(W, rowp, colp))
        assert rep.method == "tree" and rep.is_gbh
        assert len(calls) == k and calls[-1] is L and len(batches) == 1
    X, den, big = _lane_of(star(L))._batch
    assert not X.flags.writeable and np.array_equal(X, lane_batch(_lane_of(star(L)), star(L).idx)[0])


def test_a_tree_less_product_past_the_cap_keeps_no_batch():
    # a 512 x 512 table's batch, 2^18 values, is gathered by blocks on each
    # product and not kept
    W = GMatrix(rationals(), walsh(9).idx.astype(int) * -2 + 1)
    assert verify_gbh(W).method == "numeric-lane"
    assert star(W)._lane is not None and star(W)._lane._batch is None


def test_walsh12_verifies_through_one_leaf():
    W = walsh(12)
    start = time.perf_counter()
    rep = verify_gbh(W)
    assert time.perf_counter() - start < 0.1  # the 4096^2 product took 1.1 s
    assert rep.is_gbh and rep.w == 2 and rep.method == "tree"


def _lane_calls(monkeypatch):
    """The matrices gbh passes to _lane_apply from now on."""
    calls = []
    lane_apply = gbh._lane_apply
    monkeypatch.setattr(gbh, "_lane_apply", lambda A, *a: calls.append(A) or lane_apply(A, *a))
    return calls


@pytest.mark.parametrize(
    "ring",
    [cyclotomic(12), prime_field(13), quadratic_field(5), cyclotomic(60)],
    ids=["Q12", "GF13", "GF25", "Q60"],
)
def test_a_dft_is_decided_by_its_generator(ring, monkeypatch):
    # the node exists only where omega has order exactly 12, so for i != j
    # sum_k omega^((i-j)k) = 0: a DFT, permuted or starred, takes no product,
    # builds no star and reports w = 12, as the walk reference finds
    F = dft_matrix(12, ring)
    calls = _lane_calls(monkeypatch)
    assert verify_gbh(F).method == "generator" and F._star is None
    rowp, colp = (Permutation(tuple((5 * j + s) % 12 for j in range(12))) for s in (1, 7))
    for M in (F, permute(F, rowp, colp), star(F), permute(star(F), colp, rowp)):
        rep = verify_gbh(M)
        assert rep.method == "generator" and not calls
        assert rep.to_text().splitlines()[-1] == "method: generator"
        assert (rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures) == _reference_report(M)


def test_a_tree_of_dft_leaves_takes_no_product(monkeypatch):
    # each distinct leaf of a tensor tree of DFTs is decided by its generator
    ring = cyclotomic(12)
    M = tensor(dft_matrix(4, ring), dft_matrix(3, ring))
    calls = _lane_calls(monkeypatch)
    rep = verify_gbh(M)
    assert rep.method == "tree" and rep.is_gbh and rep.w == 12 and not calls
    assert (rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures) == _reference_report(M)


def test_a_dft_beside_a_leaf_is_proved_without_its_good_thomas_tree():
    # a leaf passes by its own product only when it is smaller than M, which
    # the proof reads from the leaf's order: it counts no leaves, so the DFT
    # node beside it builds no Good-Thomas tree, as built and under a row
    # reversal
    ring = cyclotomic(1020)
    M = tensor(dft_matrix(1020, ring), walsh(1, ring))
    node = M.tree.factors[0]
    reverse = Permutation(tuple(range(M.order - 1, -1, -1)))
    for P in (M, permute(M, reverse, Permutation.identity(M.order))):
        rep = verify_gbh(P)
        assert (rep.method, rep.is_gbh, rep.w, rep.failures) == ("tree", True, 1020, [])
    assert isinstance(node, DftNode) and "good_thomas" not in vars(node)


def test_a_chain_expands_and_proves_a_dft_as_one_factor_and_walks_it_by_its_good_thomas_tree():
    # a DFT node is one factor of a tensor chain: the chain's expansion reads
    # its table and the chain's proof its generator, so neither builds its
    # Good-Thomas tree; a walk of the chain goes through that tree, which it
    # builds, and equals ght of the expansion, which below WALK_MIN takes
    # the table
    ring = cyclotomic(12)
    tree = tensor(walsh(1, ring), tensor(dft_matrix(12, ring), walsh(1, ring))).tree
    node = tree.factors[1]
    assert isinstance(node, DftNode) and len(tree.factors) == 3
    E = tree.expand()
    rep = verify_gbh(E)
    assert E.tree is tree and (rep.method, rep.is_gbh, rep.w) == ("tree", True, 12)
    assert "good_thomas" not in vars(node)
    x = Signal.from_ints(ring, [(5 * k) % 11 - 5 for k in range(E.order)])
    y, count = fast_apply(tree, x)
    assert "good_thomas" in vars(node)
    assert y == ght(E, x) and count == tree_cost(tree)
    assert tree.leaves()[1:-1] == node.good_thomas.leaves() and len(tree.leaves()) == 4


def test_a_planted_dft_table_takes_the_product_and_fails():
    # one entry of the DFT changed: a table without a tree takes the product,
    # and the same table given the DFT's node drops it, as the node does not
    # expand to it, and fails the same way, so no planted table is decided by
    # a generator
    ring = cyclotomic(12)
    F = dft_matrix(12, ring)
    idx = F.idx.copy()
    idx[5, 7] = idx[5, 8]
    plain = GMatrix._table(ring, F.units, idx)
    noded = GMatrix.from_rows(ring, plain.rows(), tree=DftNode(ring, 12))
    assert noded.tree is None
    reps = [verify_gbh(M) for M in (plain, noded)]
    for rep in reps:
        assert not rep.is_gbh and rep.failures and rep.method == "numeric-lane"
    fields = lambda r: (r.is_gbh, r.v, r.w, r.char_check, r.failures)
    assert fields(reps[0]) == fields(reps[1]) == _reference_report(plain)


def _fields(rep):
    return rep.is_gbh, rep.v, rep.w, rep.char_check, rep.failures


def test_a_complex_dft_is_decided_by_its_rounding_bound():
    # a complex DFT, permuted or starred as well, is decided by its
    # generator: its units lie within about 1e-16 of the exact roots, so
    # 4 v (2 delta + delta^2) is far below tol; at tol 1e-13 the bound fails
    # and the product decides, with the same report
    F = dft_matrix(16, complex_ring())
    shift = Permutation(tuple((j + 3) % 16 for j in range(16)))
    for M in (F, permute(F, shift, shift), star(F)):
        rep = verify_gbh(M)
        ref = verify_gbh(GMatrix._table(M.ring, M.units, M.idx))
        assert (rep.is_gbh, rep.w, rep.method) == (True, 16, "generator")
        assert _fields(rep) == _fields(ref) and ref.method == "numeric-lane"
    tight = verify_gbh(dft_matrix(16, complex_ring(1e-13)))
    assert (tight.is_gbh, tight.w, tight.method) == (True, 16, "numeric-lane")
    # tol 0 is below any bound; a tolerance past sin(pi / v) lets a unit
    # round to another root than its tree's, so the product decides
    assert verify_gbh(dft_matrix(16, complex_ring(0))).method == "numeric-lane"
    assert verify_gbh(dft_matrix(16, complex_ring(0.5))).method == "numeric-lane"


def test_a_planted_complex_dft_table_fails_by_the_product():
    # one entry of the complex DFT negated: its node no longer expands to the
    # table, which takes the product and fails in row 5 and column 5, where
    # M M* meets the changed entry (5, 7)
    ring = complex_ring()
    F = dft_matrix(16, ring)
    rows = F.rows()
    rows[5][7] = -rows[5][7]
    planted = GMatrix.from_rows(ring, rows, tree=F.tree)
    assert planted.tree is None
    rep = verify_gbh(planted)
    assert not rep.is_gbh and rep.method == "numeric-lane" and rep.w == 16
    assert rep.failures == sorted(({(5, j) for j in range(16)} | {(j, 5) for j in range(16)}) - {(5, 5)})
    assert _fields(rep) == _fields(verify_gbh(GMatrix._table(ring, planted.units, planted.idx)))


COMPLEX = complex_ring()


@st.composite
def complex_trees(draw, cap, depth=3):
    """A tree over C of order at most cap: DFT nodes and Walsh leaves under
    tensor, permuted and double nodes, whose bottom half is its top half,
    that half starred, or a DFT node of its order."""
    node = draw(st.sampled_from(("leaf", "tensor", "permuted", "double"))) if depth and cap >= 4 else "leaf"
    if node == "leaf":
        if draw(st.integers(0, 4)) == 0:
            return Leaf(walsh(1, COMPLEX))
        return DftNode(COMPLEX, draw(st.integers(2, min(cap, 24))))
    if node == "permuted":
        child = draw(complex_trees(cap, depth - 1))
        rowp, colp = (Permutation(tuple(draw(st.permutations(range(child.order))))) for _ in range(2))
        return PermutedNode(child, rowp, colp)
    if node == "double":
        top = draw(complex_trees(cap // 2, depth - 1))
        bottom = draw(st.sampled_from((top, top.star(), DftNode(COMPLEX, top.order))))
        return DoubleNode(top, bottom, draw(st.booleans()))
    left = draw(complex_trees(cap // 2, depth - 1))
    return TensorNode(left, draw(complex_trees(cap // left.order, depth - 1)))


@settings(max_examples=40, deadline=None)
@given(complex_trees(1024), st.sampled_from((0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 3e-10)), st.data())
def test_complex_route_matches_the_product(tree, theta, data):
    # one unit of the expansion turned by theta keeps the tree while it
    # stays within tol of it; the route's report equals the product's, and
    # a tree of DFT nodes alone is decided without the product at theta = 0
    E = tree.expand()
    k = data.draw(st.integers(0, len(E.units) - 1))
    units = list(E.units)
    units[k] = units[k] * COMPLEX.element(cmath.exp(1j * theta))
    M = GMatrix(COMPLEX, np.array(units, dtype=object)[E.idx], tree=tree)
    rep = verify_gbh(M)
    ref = verify_gbh(GMatrix._table(COMPLEX, M.units, M.idx))
    assert ref.method == "numeric-lane" and _fields(rep) == _fields(ref)
    if theta == 0 and _proves(tree, tree.order, False):
        assert M.tree is tree and rep.method != "numeric-lane"


def test_a_double_node_is_proved_by_both_halves():
    # D(A, B) D(A, B)* = diag(2 A A*, 2 B B*), in either form: a half that
    # is no GBH sends the matrix to the product, which reports its failures
    ring = cyclotomic(4)
    S, C, bad = walsh(1, ring), cbt(1), GMatrix.from_rows(ring, [[1, 1], [1, 1]])
    for top, bottom, columns in itertools.product((S, bad), (C, bad), (False, True)):
        M = DoubleNode(Leaf(top), Leaf(bottom), columns).expand()
        rep = verify_gbh(M)
        assert _fields(rep) == _fields(verify_gbh(GMatrix._table(ring, M.units, M.idx)))
        good = top is S and bottom is C
        assert (rep.is_gbh, rep.method) == ((True, "tree") if good else (False, "numeric-lane"))


def test_cbt12_verifies_by_its_tree():
    # two distinct leaves, S_1 and C_1, and no index: cbt(10) took 1.18 s by
    # the product before cbt had a tree
    C = cbt(12)
    start = time.perf_counter()
    rep = verify_gbh(C)
    assert time.perf_counter() - start < 0.5
    assert (rep.is_gbh, rep.w, rep.method) == (True, 4, "tree")
    assert C._pending is not None


def _gf_with_roots(v):
    """GF(p) for the least prime p with v | p - 1."""
    return prime_field(next(p for p in range(v + 1, 10**4, v) if is_prime(p)))


def _prime_power(n):
    return len([p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]) <= 1


@pytest.mark.parametrize("v", range(1, 61))
def test_good_thomas_trees_expand_to_the_dft(v):
    for ring in (cyclotomic(v), complex_ring(), _gf_with_roots(v)):
        F = dft_matrix(v, ring)
        assert isinstance(F.tree, DftNode) and tree_matches(F.tree, F)
        leaves = F.tree.leaves()
        assert math.prod(L.order for L in leaves) == v
        assert all(_prime_power(L.order) for L in leaves)
        # coprime leaf orders, each the table of dft_matrix, to the last bit on C
        assert len({L.order for L in leaves}) == len(leaves) or v == 1
        for L in leaves:
            D = dft_matrix(L.order, ring)
            assert [u.payload for u in L.units] == [u.payload for u in D.units]
            assert np.array_equal(L.idx, D.idx)
        # the node is its generator: it expands to F itself, and at a prime
        # power its one leaf is its power table, which shares F's index
        assert F.tree.expand() is F and F.tree.table.idx is F.idx
        assert F.tree.leaves() == (F.tree.table,) or not _prime_power(v)


@pytest.mark.parametrize("v", [8, 9, 12, 60, 1024])
def test_star_keeps_a_dft_and_its_star_on_each_other(v, monkeypatch):
    # star(star(M)) is M itself; F* = [omega^(-jk)] is F with row j moved to
    # row -j mod v, so the starred tree is F's node with its rows negated, it
    # builds no table and no Good-Thomas tree, and at a prime power its one
    # leaf is F's power table
    neg = Permutation(tuple(-j % v for j in range(v)))
    tables = []
    power_table = gbh._power_table
    for ring in (cyclotomic(v), complex_ring(), _gf_with_roots(v)) if v < 1024 else (complex_ring(),):
        F = dft_matrix(v, ring)
        monkeypatch.setattr(gbh, "_power_table", lambda *a: tables.append(a) or power_table(*a))
        S = star(F)
        monkeypatch.undo()
        assert star(S) is F and star(F) is S and tree_matches(S.tree, S)
        assert S.tree == PermutedNode(F.tree, neg, Permutation.identity(v))
        assert "good_thomas" not in vars(F.tree)
        assert S.tree.leaves() == (F.tree.table,) or not _prime_power(v)
    assert tables == []
    W = walsh(3)
    assert star(star(W)) is W


def test_good_thomas_walk_on_c_is_closer_to_the_fft():
    # the k-th power of a rounded omega carries k times its angle error; the
    # table holds each exp(-2 pi i k / v) itself, and so do the leaves, so
    # the walk and the table product are both within 1e-10 (the table of
    # powers was 3e-10 away)
    v = 2310  # 2 * 3 * 5 * 7 * 11
    xs = [(7 * k) % 19 - 9 for k in range(v)]
    F, x = dft_matrix(v, complex_ring()), Signal.from_ints(complex_ring(), xs)
    fft = np.fft.fft(np.array(xs, dtype=complex))
    err = lambda y: np.abs(np.array([e.payload for e in y.elements]) - fft).max()
    assert err(fast_apply(F.tree, x)[0]) < 1e-10 and err(ght(F, x)) < 1e-10  # 5e-12 and 3e-12


def test_complex_dft_table_is_written_entry_by_entry():
    # dft(4095)'s table of powers was 1.1e-9 from the FFT, past the default
    # tol; each Good-Thomas leaf is the table of dft_matrix(q)
    v = 4095
    xs = [(7 * k) % 19 - 9 for k in range(v)]
    c = complex_ring()
    F = dft_matrix(v, c)
    y = ght(F, Signal.from_ints(c, xs))
    assert np.abs(np.array([e.payload for e in y.elements]) - np.fft.fft(xs)).max() < 1e-10
    for L in F.tree.leaves():
        D = dft_matrix(L.order, c)
        assert [u.payload for u in L.units] == [u.payload for u in D.units]
        assert (L.idx == D.idx).all()


def test_rjt_stays_one_leaf_in_family_trees():
    M = family(1, 1, 1, 3, 2, cyclotomic(6))[0]
    assert [L.order for L in M.tree.leaves()] == [2, 4, 6]
    assert tree_cost(M.tree).mul == 48 * (2 + 4 + 6)
    assert isinstance(M.tree.right, PermutedNode) and isinstance(M.tree.right.child, Leaf)
