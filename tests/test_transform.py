"""Forward/inverse transform pair and the tensor-factored fast apply."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ght import (
    GMatrix,
    Leaf,
    MatrixError,
    Permutation,
    PermutedNode,
    Signal,
    TensorNode,
    b3,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    fast_apply,
    ght,
    ight,
    jacketize_cbt,
    k3,
    k4,
    prime_field,
    quadratic_field,
    rationals,
    star,
    tensor,
    walsh,
)
from ght import transform
from ght.ring import RationalsContext, RingError
from ght.transform import OpCount, tree_cost


def test_s1_on_ones():
    x = Signal.from_ints(rationals(), [1, 1])
    y = ght(walsh(1), x)
    assert y == Signal.from_ints(rationals(), [2, 0])


def test_impulse_gives_first_column():
    M = k4()
    ring = M.ring
    x = Signal(ring, tuple([ring.one()] + [ring.zero()] * 7))
    y = ght(M, x)
    assert y == Signal(ring, tuple(M.entry(i, 0) for i in range(8)))


def test_dft3_on_root_powers():
    ring = cyclotomic(3)
    beta = ring.root_of_unity(3)
    F = dft_matrix(3, ring)
    x = Signal(ring, (ring.one(), beta, beta * beta))
    y = ght(F, x)
    assert y == Signal(ring, (ring.zero(), ring.zero(), ring.from_int(3)))


def test_signal_equality():
    x = Signal.from_ints(rationals(), [1, -2, 3])
    assert x == Signal.from_ints(rationals(), [1, -2, 3])
    assert x != Signal.from_ints(rationals(), [1, -2])
    assert x != Signal.from_ints(rationals(), [1, -2, 4])
    assert x != Signal.from_ints(cyclotomic(4), [1, -2, 3])
    c = complex_ring(1e-9)
    y = Signal(c, (c.one(), c.element(2j)))
    assert y == Signal(complex_ring(1e-9), (c.element(1 + 1e-12j), c.element(2j - 1e-12)))
    assert y != Signal(c, (c.one(), c.element(2j + 1e-6)))
    assert y != Signal(complex_ring(1e-6), y.elements)


def test_length_and_ring_mismatch():
    with pytest.raises(MatrixError):
        ght(walsh(2), Signal.from_ints(rationals(), [1, 2]))
    with pytest.raises(MatrixError):
        ght(walsh(1), Signal.from_ints(cyclotomic(4), [1, 2]))


@pytest.mark.parametrize(
    "mk",
    [
        lambda: walsh(3),
        lambda: cbt(3),
        lambda: dft_matrix(5, cyclotomic(5)),
        lambda: k4(),
        lambda: k3(quadratic_field(5)),
        lambda: b3(quadratic_field(5)),
    ],
)
def test_round_trip(mk):
    M = mk()
    rng = random.Random(11)
    x = Signal.from_ints(M.ring, [rng.randint(-9, 9) for _ in range(M.order)])
    assert ight(M, ght(M, x)) == x
    assert ght(M, ight(M, x)) == x


def test_round_trip_needs_invertible_order():
    from ght.ring import prime_field

    M = b3(prime_field(7))  # fine: 7 does not divide 3
    x = Signal.from_ints(M.ring, [1, 2, 3])
    assert ight(M, ght(M, x)) == x
    # order 2 over GF(2)-like obstruction is caught at int_inverse
    with pytest.raises(RingError):
        prime_field(3).int_inverse(3)


def test_linearity():
    M = k4()
    ring = M.ring
    rng = random.Random(3)
    a = Signal.from_ints(ring, [rng.randint(-5, 5) for _ in range(8)])
    b = Signal.from_ints(ring, [rng.randint(-5, 5) for _ in range(8)])
    s = Signal(ring, tuple(p + q for p, q in zip(a.elements, b.elements)))
    ya, yb, ys = ght(M, a), ght(M, b), ght(M, s)
    assert ys == Signal(ring, tuple(p + q for p, q in zip(ya.elements, yb.elements)))


def test_int_lane_matches_ring_path():
    M = walsh(4)
    ring = M.ring
    rng = random.Random(5)
    ints = [rng.randint(-20, 20) for _ in range(16)]
    x = Signal.from_ints(ring, ints)
    fast = ght(M, x)
    rows = [M.row(i) for i in range(16)]
    slow = Signal(
        ring, tuple(ring.dot(zip(rows[i], x.elements)) for i in range(16))
    )
    assert fast == slow


@pytest.mark.parametrize(
    "mk",
    [
        lambda: walsh(5),
        lambda: tensor(k4(), cbt(2)),
        lambda: tensor(b3(cyclotomic(12)), dft_matrix(4, cyclotomic(12))),
    ],
)
def test_fast_apply_matches_naive(mk):
    M = mk()
    rng = random.Random(17)
    x = Signal.from_ints(M.ring, [rng.randint(-9, 9) for _ in range(M.order)])
    y, count = fast_apply(M.tree, x)
    assert y == ght(M, x)
    assert count.mul < M.order * M.order


def test_fast_apply_leaf_tree_is_naive():
    M = cbt(3)
    x = Signal.from_ints(M.ring, list(range(1, 9)))
    y, count = fast_apply(M.as_tree(), x)
    assert y == ght(M, x)
    assert count.mul == 64


@pytest.mark.parametrize("t", [3, 6, 9])
def test_fast_apply_walsh_op_counts(t):
    v = 2 ** t
    x = Signal.from_ints(rationals(), [1] * v)
    _, count = fast_apply(walsh(t).tree, x)
    assert count.mul == v * 2 * t
    assert count.add == v * t  # each 2-point stage: one add per output pair


def test_fast_apply_length_mismatch():
    with pytest.raises(MatrixError):
        fast_apply(walsh(2).tree, Signal.from_ints(rationals(), [1, 2]))


def test_fast_apply_permuted_node():
    J, _ = jacketize_cbt(3)
    rng = random.Random(23)
    x = Signal.from_ints(J.ring, [rng.randint(-5, 5) for _ in range(8)])
    y, _ = fast_apply(J.tree, x)
    assert y == ght(J, x)


def test_fast_apply_ring_mismatch():
    with pytest.raises(MatrixError):
        fast_apply(walsh(2).tree, Signal.from_ints(cyclotomic(4), [1, 2, 3, 4]))


def _count_adds(monkeypatch, context):
    added = []
    add = context._add
    monkeypatch.setattr(context, "_add", lambda ring, a, b: added.append(1) or add(ring, a, b))
    return added


def _walsh3_mersenne61():
    # the unit -1 of GF(2^61 - 1) is 2^61 - 2: the products pass 2^53 and
    # the lane multiplies Python integers
    return walsh(3, prime_field(2**61 - 1))


# inputs with a signal of their own and its exact output, as integers
_EXACT_OUTPUTS = {_walsh3_mersenne61: (range(8), [28, -4, -8, 0, -16, 0, 0, 0])}


@pytest.mark.parametrize(
    "mk",
    [
        lambda: walsh(3, prime_field(7)),
        lambda: tensor(k3(quadratic_field(5)), k3(quadratic_field(5))),
        lambda: tensor(dft_matrix(4, cyclotomic(4)), walsh(1, cyclotomic(4))),
        lambda: tensor(dft_matrix(4, complex_ring()), dft_matrix(2, complex_ring())),
        _walsh3_mersenne61,
    ],
)
def test_lane_transforms_make_no_ring_additions(monkeypatch, mk):
    M = mk()
    ring = M.ring
    if mk in _EXACT_OUTPUTS:
        x = Signal.from_ints(ring, _EXACT_OUTPUTS[mk][0])
    else:
        u = ring.root_of_unity(4 if ring.characteristic() != 7 else 3)
        x = Signal(ring, tuple(ring.from_int(k) + u * ring.from_int(k % 3) for k in range(M.order)))
    want = [ght(M, x), ight(M, x)]
    added = _count_adds(monkeypatch, type(ring))
    dots = []
    monkeypatch.setattr(type(ring), "dot", lambda *args: dots.append(1))
    y, _ = fast_apply(M.tree, x)
    assert [y, ight(M, x)] == want
    assert ight(M, ght(M, x)) == x
    assert added == [] and dots == []
    if mk in _EXACT_OUTPUTS:
        assert y == Signal.from_ints(ring, _EXACT_OUTPUTS[mk][1])


def test_big_zeta4_signal_stays_on_the_lane(monkeypatch):
    # +-1 units never fill the plane of x^2, so the fold modulo Phi_4 only
    # keeps planes 0 and 1: a signal near 2^51 stays exact in float64
    ring = cyclotomic(4)
    M = walsh(3, ring)
    x = _zeta4_signal([(2**51 + 1, 2**51 - 3)] + [(k, -k) for k in range(7)])
    want = Signal(ring, tuple(ring.dot(zip(row, x.elements)) for row in M.rows()))
    dots = []
    monkeypatch.setattr(type(ring), "dot", lambda *args: dots.append(1))
    y, _ = fast_apply(M.tree, x)
    assert y == want and dots == []


def test_fraction_signal_makes_no_ring_additions(monkeypatch):
    added = _count_adds(monkeypatch, RationalsContext)
    q = rationals()
    x = Signal(q, tuple(q.element(Fraction(k, 3)) for k in range(8)))
    M = walsh(3)
    y, _ = fast_apply(M.tree, x)
    assert ight(M, y) == x
    assert added == []


def test_fraction_signal_transforms_are_fast():
    q = rationals()
    rng = random.Random(29)
    M = walsh(10)
    values = [Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 7))) for _ in range(M.order)]
    x = Signal(q, tuple(map(q.element, values)))
    for transform in (ght, ight):
        t0 = time.perf_counter()
        transform(M, x)
        assert time.perf_counter() - t0 < 1.0


def test_tree_cost_counts_nodes():
    J, _ = jacketize_cbt(3)
    assert tree_cost(J.tree) == OpCount(64, 56)  # a leaf under a permuted node
    assert tree_cost(walsh(3).tree) == OpCount(48, 24)
    T = tensor(k3(quadratic_field(5)), walsh(1, quadratic_field(5)))
    assert tree_cost(T.tree) == OpCount(6 * 4 + 2 * 36, 6 * 2 + 2 * 30)


# --- fast_apply == ght over random factor trees, on every backend ---

RINGS = [rationals(), cyclotomic(4), prime_field(7), quadratic_field(5), complex_ring()]


def _units(ring):
    """Leaf entries: a few units, exact on the complex backend too; the
    second is outside the integers where the ring allows. Over the rationals
    non-integer units make a walk switch lanes at their leaf."""
    kind = ring.spec.kind
    if kind == "rationals":
        return [ring.element(Fraction(n)) for n in (1, Fraction(1, 2), -1, 2, -3)]
    if kind == "complex-float":
        return [ring.element(c) for c in (1, 1j, -1, -1j, 2)]
    if kind == "prime-field":
        return [ring.from_int(n) for n in range(1, 7)]
    z = ring.root_of_unity(4 if kind == "cyclotomic-rationals" else 8)
    return [z**k for k in range(4)] + [ring.from_int(2)]


@st.composite
def trees(draw, ring, depth, cap):
    """A factor tree of at most `depth` levels of nodes above its leaves and
    of order at most `cap`."""
    node = draw(st.sampled_from(("leaf", "tensor", "tensor", "permuted"))) if depth else "leaf"
    if node == "leaf":
        a = draw(st.integers(1, min(4, cap)))
        entries = draw(st.lists(st.sampled_from(_units(ring)), min_size=a * a, max_size=a * a))
        return Leaf(GMatrix.from_rows(ring, [entries[i * a : (i + 1) * a] for i in range(a)]))
    if node == "permuted":
        child = draw(trees(ring, depth - 1, cap))
        rowp, colp = (draw(st.permutations(range(child.order))) for _ in range(2))
        return PermutedNode(child, Permutation(tuple(rowp)), Permutation(tuple(colp)))
    left = draw(trees(ring, depth - 1, cap))
    right = draw(trees(ring, depth - 1, cap // left.order))
    return TensorNode(left, right)


def _element(ring, kind, draw):
    """A signal entry: a small integer, an integer near 2^52 (exact
    backends), or a non-integer element."""
    if kind == "small" or (kind == "big" and not ring.is_exact):
        return ring.from_int(draw(st.integers(-9, 9)))
    if kind == "big":
        big = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(46, 52))
        return ring.from_int(big + draw(st.integers(-9, 9)))
    a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    d = draw(st.sampled_from((2, 4)))
    return (ring.from_int(a) + ring.from_int(b) * _units(ring)[1]) * ring.int_inverse(d)


@st.composite
def walks(draw):
    ring = draw(st.sampled_from(RINGS))
    tree = draw(trees(ring, 3, 64))
    kind = draw(st.sampled_from(("small", "big", "fraction")))
    x = Signal(ring, tuple(_element(ring, kind, draw) for _ in range(tree.order)))
    return tree, x


def _q_signal(values):
    q = rationals()
    return Signal(q, tuple(q.element(Fraction(n)) for n in values))


def _zeta4_signal(pairs):
    """Entries a + b*i of Q(zeta4) from integer pairs (a, b)."""
    ring = cyclotomic(4)
    i = ring.root_of_unity(4)
    return Signal(ring, tuple(ring.from_int(a) + ring.from_int(b) * i for a, b in pairs))


@settings(max_examples=300)
@given(walks())
@example((walsh(3).tree, Signal.from_ints(rationals(), [2**51 + 1] + [2**51] * 7)))
# over the lcm 2^40 the integer entries scale to about 2^53: the first
# 2-point stage crosses the float64 bound with a carried denominator and
# goes on in Python integers
@example((walsh(3).tree, _q_signal([Fraction(8191, 2**40)] + [8191 - k for k in range(7)])))
# the entry 8192 scales to 2^53 itself: the first leaf multiplies Python integers
@example((walsh(3).tree, _q_signal([Fraction(-8191, 2**40 + 1)] + [8192 - 3 * k for k in range(7)])))
# 2^30 + 1 is exact in float64 but not in float32, which is exact only below 2^24
@example((walsh(3).tree, Signal.from_ints(rationals(), [2**30 + 1] + list(range(7)))))
# GF(2^61 - 1): the leaf unit -1 is past the float64 bound, so every leaf
# multiplies Python integers
@example((walsh(2, prime_field(2**61 - 1)).tree, Signal.from_ints(prime_field(2**61 - 1), [5, 3, 2**40, 7])))
# Q(zeta4): the first two 2-point stages stay in float64; with the fold
# modulo Phi_4 the last would reach 2^53 and takes the float batch on in
# Python integers
@example((walsh(3, cyclotomic(4)).tree, _zeta4_signal([(2**50 + 1, 2**50)] + [(2**50, -(2**50))] * 7)))
def test_fast_apply_matches_ght_on_random_trees(case):
    tree, x = case
    y, count = fast_apply(tree, x)
    M = tree.expand()
    assert y == ght(M, x)
    assert count == tree_cost(tree)
    # one ring.dot per entry as reference, within tol on the complex
    # backend, where BLAS may sum in another order
    ring = x.ring
    assert y == Signal(ring, tuple(ring.dot(zip(row, x.elements)) for row in M.rows()))


@settings(max_examples=300)
@given(walks())
def test_ight_matches_reference_on_random_trees(case):
    tree, y = case
    ring, M = y.ring, tree.expand()
    ch = ring.characteristic()
    assume(not ch or M.order % ch)
    v_inv = ring.int_inverse(M.order)
    want = [v_inv * ring.dot(zip(row, y.elements)) for row in star(M).rows()]
    assert ight(M, y) == Signal(ring, tuple(want))


def test_ight_does_not_walk_an_unchecked_tree():
    # one entry negated under walsh(3)'s tree, kept through from_rows
    W = walsh(3)
    rows = W.rows()
    rows[2][5] = -rows[2][5]
    M = GMatrix.from_rows(W.ring, rows, tree=W.tree)
    x = Signal.from_ints(W.ring, [3, -1, 4, 1, -5, 9, 2, -6])
    v_inv = W.ring.int_inverse(8)
    want = [v_inv * W.ring.dot(zip(row, x.elements)) for row in star(M).rows()]
    assert ight(M, x) == Signal(W.ring, tuple(want)) != ight(W, x)


@pytest.mark.parametrize("v, leaf_orders", [(24, [24, 1]), (60, [5, 3, 4, 1])])
def test_ight_walks_a_dft_tree_only_where_it_pays(monkeypatch, v, leaf_orders):
    # Q(zeta_24) has 8 coefficient planes, so dft(24) has 24 * 8 lane values
    # per column, below DFT_WALK_MIN, and is one table; dft(60), 60 * 16, walks
    # its Good-Thomas tree
    ring = cyclotomic(v)
    F = dft_matrix(v, ring)
    orders = []
    product = transform._product
    monkeypatch.setattr(transform, "_product", lambda M, *a: orders.append(M.order) or product(M, *a))
    x = Signal.from_ints(ring, [(7 * k) % 19 - 9 for k in range(v)])
    assert ight(F, ght(F, x)) == x
    assert orders == [v] + leaf_orders
