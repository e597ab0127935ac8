"""Forward/inverse transform pair and the tensor-factored fast apply."""

import copy
import math
import pickle
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ght import (
    DftNode,
    DoubleNode,
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
    equal,
    fast_apply,
    ght,
    ight,
    jacketize_cbt,
    k2,
    k3,
    k4,
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
from ght import matrix, transform
from ght.matrix import tree_matches
from ght.ring import ComplexContext, CyclotomicContext, RationalsContext, RingError
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
    M = k4()
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


@pytest.mark.parametrize("ring", [rationals(), cyclotomic(4)], ids=["Q", "Q4"])
def test_a_tree_of_leaves_over_two_rings_is_a_ring_mismatch(ring):
    # a hand-built tree whose leaves lie over Q and over Q(zeta_4) has no one
    # ring, so a signal over either meets a leaf over the other, also when
    # the mixed leaves sit under a permuted node, one factor of the walk
    mixed = TensorNode(Leaf(walsh(1)), Leaf(walsh(1, cyclotomic(4))))
    swap = Permutation((1, 0, 3, 2))
    x = Signal.from_ints(ring, [1, 2, 3, 4])
    for tree in (mixed, PermutedNode(mixed, swap, swap)):
        with pytest.raises(MatrixError, match="ring mismatch"):
            fast_apply(tree, x)


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


def test_units_past_int64_take_the_object_lane():
    # 2^70 passes int64, so the lane table of k2(2^70) holds Python integers
    q = rationals()
    M = k2(2**70)
    x = Signal.from_ints(q, [3, -1, 4, 1])
    y = ght(M, x)
    assert matrix._lane_of(M).table.dtype == object
    assert y == Signal(q, tuple(q.dot(zip(M.row(i), x.elements)) for i in range(4)))
    assert ight(M, y) == x
    assert verify_gbh(M).is_gbh
    T = tensor(k2(2**70), walsh(6))
    X = Signal.from_ints(q, [(7 * k) % 23 - 11 for k in range(T.order)])
    Y, _ = fast_apply(T.tree, X)
    assert ight(T, Y) == X


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


def test_chained_round_trips_keep_the_denominator():
    # the lane form leaves each transform in lowest terms: without that, every
    # ight multiplies the carried denominator by v, and a chain of round
    # trips slows down until the lane falls to Python integers
    q = rationals()
    rng = random.Random(31)
    M = walsh(10)
    values = [Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 7))) for _ in range(M.order)]
    x = Signal(q, tuple(map(q.element, values)))
    y, times = x, []
    for _ in range(6):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            z = ight(M, fast_apply(M.tree, y)[0])
            best = min(best, time.perf_counter() - t0)
        y = z
        times.append(best)
        planes, den = y._lane_form()
        assert den == x._lane_form()[1] and planes.dtype != object
    assert y == x
    assert times[-1] < 3 * times[0]


def test_tree_cost_counts_nodes():
    K = k4()
    J = permute(K, Permutation.identity(8), Permutation((1, 0, 2, 3, 4, 5, 6, 7)))
    assert tree_cost(J.tree) == OpCount(64, 56)  # a leaf under a permuted node
    # C_3 = D(C_2, C_1 (x) S_1): C_2 = D(S_1, C_1) costs 4 + 4 mul and
    # 2 + 2 + 4 add, C_1 (x) S_1 costs 2 * 4 + 2 * 4 mul and 2 * 2 + 2 * 2
    # add, and the outer butterfly 8 add
    assert tree_cost(cbt(3).tree) == OpCount(24, 24)
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
    """A signal entry: a small integer, an integer near 2^e for
    22 <= e <= 52 (exact backends), whose sums and products pass float32's
    or float64's integers, or a non-integer element."""
    if kind == "small" or (kind == "big" and not ring.is_exact):
        return ring.from_int(draw(st.integers(-9, 9)))
    if kind == "big":
        big = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(22, 52))
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


def _cost_by_recurrence(node):
    """tree_cost's reference: a leaf of order a costs a^2 and a(a-1), a
    tensor node of orders (a, b) applies its right factor a times and its
    left factor b times, and a double node of order v applies each half once
    and adds v additions."""
    if isinstance(node, Leaf):
        a = node.order
        return OpCount(a * a, a * (a - 1))
    if isinstance(node, TensorNode):
        a, b = node.left.order, node.right.order
        left, right = _cost_by_recurrence(node.left), _cost_by_recurrence(node.right)
        return OpCount(a * right.mul + b * left.mul, a * right.add + b * left.add)
    if isinstance(node, DoubleNode):
        top, bottom = _cost_by_recurrence(node.top), _cost_by_recurrence(node.bottom)
        return OpCount(top.mul + bottom.mul, top.add + bottom.add + node.order)
    return _cost_by_recurrence(node.child)


@settings(max_examples=300)
@given(walks())
@example((walsh(3).tree, Signal.from_ints(rationals(), [2**51 + 1] + [2**51] * 7)))
# over the lcm 2^40 the integer entries scale to about 2^53: the first
# 2-point stage crosses the float64 bound with a carried denominator and
# goes on in Python integers
@example((walsh(3).tree, _q_signal([Fraction(8191, 2**40)] + [8191 - k for k in range(7)])))
# the entry 8192 scales to 2^53 itself: the first leaf multiplies Python integers
@example((walsh(3).tree, _q_signal([Fraction(-8191, 2**40 + 1)] + [8192 - 3 * k for k in range(7)])))
# -2^63 is an int64 whose negation is not: the bound on the batch must still
# see it, and the leaves multiply Python integers
@example((walsh(2).tree, Signal.from_ints(rationals(), [-(2**63), 5, 3, -1])))
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
    assert count == tree_cost(tree) == _cost_by_recurrence(tree)
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


# --- trees with double nodes, on every backend that has i ---

RINGS_WITH_I = [cyclotomic(4), prime_field(13), quadratic_field(5), complex_ring()]


@st.composite
def doubling_trees(draw, ring, depth, cap, gbh=False):
    """A factor tree of order at most cap whose nodes may be double nodes,
    in either form, besides tensor and permuted nodes. A double node's
    bottom half is its top half, that half starred or permuted, or a leaf of
    its order. Leaves are those of trees(), or with gbh set S_1 and F_4
    (no other leaf), so that every node is GBH."""
    node = draw(st.sampled_from(("leaf", "tensor", "permuted", "double", "double"))) if depth and cap >= 2 else "leaf"
    if node == "leaf":
        if gbh:
            return draw(st.sampled_from([Leaf(walsh(1, ring))] + ([DftNode(ring, 4)] if cap >= 4 else [])))
        return draw(trees(ring, 0, cap))
    if node == "tensor":
        left = draw(doubling_trees(ring, depth - 1, cap, gbh))
        return TensorNode(left, draw(doubling_trees(ring, depth - 1, cap // left.order, gbh)))
    top = draw(doubling_trees(ring, depth - 1, cap if node == "permuted" else cap // 2, gbh))
    a = top.order
    rowp, colp = (Permutation(tuple(draw(st.permutations(range(a))))) for _ in range(2))
    if node == "permuted":
        return PermutedNode(top, rowp, colp)
    bottoms = [top, top.star(), PermutedNode(top, rowp, colp)]
    if not gbh and a <= 4:
        entries = draw(st.lists(st.sampled_from(_units(ring)), min_size=a * a, max_size=a * a))
        bottoms.append(Leaf(GMatrix.from_rows(ring, [entries[i * a : (i + 1) * a] for i in range(a)])))
    return DoubleNode(top, draw(st.sampled_from(bottoms)), draw(st.booleans()))


@st.composite
def doubling_walks(draw, gbh=False):
    """A doubling tree and a signal; without gbh over Q as well, whose
    halves may hold leaves over different denominators."""
    ring = draw(st.sampled_from(RINGS_WITH_I if gbh else RINGS_WITH_I + [rationals()]))
    tree = draw(doubling_trees(ring, 3, 128 if gbh else 64, gbh))
    kind = draw(st.sampled_from(("small", "big", "fraction")))
    return tree, Signal(ring, tuple(_element(ring, kind, draw) for _ in range(tree.order)))


@settings(max_examples=200, deadline=None)
@given(doubling_walks())
# entries near 2^52: the first butterfly's sums pass 2^53 and go on as
# Python integers
@example((cbt(3).tree, Signal.from_ints(cyclotomic(4), [2**52 + 1] + [-(2**52)] * 7)))
# Q entries near 2^23, in float32 while below 2^24: an odd sum past 2^24,
# after a leaf's or a butterfly's float32 output, in both forms and alone or
# behind a leaf in a tensor chain
@example((DoubleNode(Leaf(walsh(1)), Leaf(walsh(1))), _q_signal([2**23 - 1] + [2**23 - 2] * 3)))
@example((DoubleNode(Leaf(walsh(1)), Leaf(walsh(1)), True), _q_signal([2**23 - 1] + [2**23 - 2] * 3)))
@example((TensorNode(DoubleNode(Leaf(walsh(1)), Leaf(walsh(1))), Leaf(walsh(1))), _q_signal([2**23 - 1] + [2**23 - 2] * 7)))
@example((TensorNode(DoubleNode(Leaf(walsh(1)), Leaf(walsh(1)), True), Leaf(walsh(1))), _q_signal([2**23 - 1] + [2**23 - 2] * 7)))
# GF(2^60 + 33), which has i: the units are past the float64 bound, so the
# leaves multiply Python integers and the butterflies add them
@example((cbt(2, prime_field(2**60 + 33)).tree, Signal.from_ints(prime_field(2**60 + 33), [5, 3, 2**59, 7])))
def test_fast_apply_matches_ght_over_double_nodes(case):
    # the walk of a double node sums and subtracts halves by the lane
    # kernel, over one denominator; ght, ight and one ring.dot per entry of
    # the expansion agree with it
    tree, x = case
    ring, M = x.ring, tree.expand()
    y, count = fast_apply(tree, x)
    assert y == ght(M, x) == Signal(ring, tuple(ring.dot(zip(row, x.elements)) for row in M.rows()))
    assert count == tree_cost(tree) == _cost_by_recurrence(tree)
    p = ring.characteristic()
    if p == 0 or M.order % p:
        v_inv = ring.int_inverse(M.order)
        want = [v_inv * ring.dot(zip(row, y.elements)) for row in star(M).rows()]
        assert ight(M, y) == Signal(ring, tuple(want))
    # over GF(p) and GF(p^2) the lane form holds reduced coefficients, after
    # a column-form butterfly as after a leaf
    assert not p or all(0 <= c < p for c in y._lane_form()[0].ravel().tolist())


@settings(max_examples=100, deadline=None)
@given(doubling_walks(gbh=True))
def test_round_trips_over_gbh_double_nodes(case):
    # exact on the exact backends, within tol on C
    tree, x = case
    M = tree.expand()
    y, _ = fast_apply(tree, x)
    assert ight(M, y) == x and ight(M, ght(M, x)) == x
    assert verify_gbh(M).is_gbh


def test_cbt12_walks_in_milliseconds():
    # ght of cbt(12) walks its doubling tree, 67 leaf products of order 2,
    # and never writes the 16 MB index; as one table it took 0.34 s
    C = cbt(12)
    x = Signal.from_ints(C.ring, [(7 * k) % 23 - 11 for k in range(C.order)])
    y = ght(C, x)  # lane form, as the transforms return it
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        z = ght(C, y)
        best = min(best, time.perf_counter() - start)
    assert best < 0.005
    assert ight(C, y) == x and ight(C, z) == y
    assert C._pending is not None and star(C)._pending is not None


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


@pytest.mark.parametrize("v, leaf_orders", [(24, [24]), (60, [5, 3, 4])])
def test_ight_walks_a_dft_tree_only_where_it_pays(monkeypatch, v, leaf_orders):
    # Q(zeta_24) has 8 coefficient planes, so dft(24) has 24 * 8 lane values
    # per column, below WALK_MIN, and ght and ight take one table each;
    # dft(60), 60 * 16, walks its Good-Thomas tree both ways, and ight ends
    # with its 1/v leaf
    ring = cyclotomic(v)
    F = dft_matrix(v, ring)
    orders = []
    lane_apply = matrix._lane_apply
    monkeypatch.setattr(matrix, "_lane_apply", lambda M, *a: orders.append(M.order) or lane_apply(M, *a))
    x = Signal.from_ints(ring, [(7 * k) % 19 - 9 for k in range(v)])
    assert ight(F, ght(F, x)) == x
    assert orders == leaf_orders + leaf_orders + [1]


@settings(max_examples=150)
@given(walks())
def test_star_keeps_a_tree_that_both_transforms_walk(case):
    tree, x = case
    ring, M = x.ring, tree.expand()
    S = star(M)
    assert (S.tree is None) == (M.tree is None)
    assert S.tree is None or tree_matches(S.tree, S)
    ch = ring.characteristic()
    v_inv = None if ch and M.order % ch == 0 else ring.int_inverse(M.order)
    # these orders are below WALK_MIN and take one table; at 1 every tree
    # is walked
    for walk_min in (transform.WALK_MIN, 1):
        with mock.patch.object(transform, "WALK_MIN", walk_min):
            assert ght(M, x) == fast_apply(M.as_tree(), x)[0]
            if v_inv is not None:
                want = [v_inv * ring.dot(zip(row, x.elements)) for row in S.rows()]
                assert ight(M, x) == Signal(ring, tuple(want))


def test_a_first_ight_of_a_prime_power_dft_inverts_its_units_once(monkeypatch):
    # star(F) inverts the 1024 units of F, and F's tree stars to F with its
    # rows negated, whose one leaf is F's power table, instead of inverting a
    # second table;
    # the 1/v leaf inverts one more unit, and a second ight inverts none
    C = complex_ring()
    F = dft_matrix(1024, C)
    transform._inverse_leaf.cache_clear()
    calls = []
    inv = ComplexContext._inv
    monkeypatch.setattr(ComplexContext, "_inv", lambda ring, a: calls.append(a) or inv(ring, a))
    x = Signal.from_ints(C, [(7 * k) % 19 - 9 for k in range(1024)])
    y = ight(F, x)
    assert len(calls) == 1025 and ight(F, x) == y and len(calls) == 1025
    assert star(F).tree.leaves() == (F.tree.table,)


def test_a_first_ight_of_dft60_inverts_only_the_units_of_its_star(monkeypatch):
    # star(F) inverts the 60 units of F and the 1/v leaf one more; the walk
    # of F's tree with its rows negated meets the leaves of orders 4, 3 and 5
    # themselves, whose 12 units a starred tree inverted again
    ring = cyclotomic(60)
    F = dft_matrix(60, ring)
    transform._inverse_leaf.cache_clear()
    calls = []
    inv = CyclotomicContext._inv
    monkeypatch.setattr(CyclotomicContext, "_inv", lambda ring, a: calls.append(a) or inv(ring, a))
    x = Signal.from_ints(ring, [(7 * k) % 19 - 9 for k in range(60)])
    assert ight(F, ght(F, x)) == x and len(calls) == 61


def test_transforms_walk_a_tree_only_from_walk_min(monkeypatch):
    # walsh(12), 4096 lane values per column, walks its 12 leaves both ways;
    # walsh(7), 128, takes one table each way; ight adds its 1/v leaf
    orders, stars = [], []
    lane_apply = matrix._lane_apply
    monkeypatch.setattr(matrix, "_lane_apply", lambda M, *a: orders.append(M.order) or lane_apply(M, *a))
    for node in (Leaf, TensorNode, PermutedNode):
        monkeypatch.setattr(node, "star", lambda t, f=node.star: stars.append(t) or f(t))
    for t, leaves in ((12, [2] * 12), (7, [128])):
        W = walsh(t)
        x = Signal.from_ints(W.ring, [(7 * k) % 19 - 9 for k in range(2**t)])
        orders.clear()
        assert ight(W, ght(W, x)) == x
        assert orders == leaves + leaves + [1]
        # star(W) keeps the starred tree: a second ight builds no node of it
        stars.clear()
        assert ight(W, ght(W, x)) == x and stars == []


# --- lane-form signals, as the transforms return them ---


@settings(max_examples=100)
@given(walks())
def test_lane_form_signals_act_as_their_elements(case):
    tree, x = case
    ring = x.ring
    for y in (fast_apply(tree, x)[0], ght(tree.expand(), x)):
        assert y.ring == ring and y.length == tree.order
        assert y._elements is None  # not decoded yet
        twin = Signal(ring, y.elements)
        assert y == twin and twin == y and not y != twin
        if ring.is_exact:
            assert hash(y) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(y)
        changed = Signal(ring, (y.elements[0] + 1,) + y.elements[1:])
        assert y != changed and changed != y
        for name in ("ring", "length", "elements", "_planes", "_den", "new"):
            with pytest.raises(AttributeError):
                setattr(y, name, None)
        planes, _ = y._lane_form()
        with pytest.raises(ValueError):
            planes[0, 0] = 0


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.spec.kind)
def test_signals_copy_and_pickle_in_the_form_they_hold(ring):
    # copy, deepcopy and pickle of a signal raised "Signal is immutable":
    # each rebuilds its elements, or its lane form from a copy of its
    # planes, over the live ring
    x = Signal.from_ints(ring, [3, -1, 4, 1])
    y = ght(walsh(2, ring), x)
    for s in (x, y):
        for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert c.ring is ring and c == s and (c._planes is None) == (s._planes is None)
            assert c._planes is None or c._planes is not s._planes and not c._planes.flags.writeable
            assert not ring.is_exact or hash(c) == hash(s)


def test_lane_form_inputs_are_read_as_they_are(monkeypatch):
    # a transform's output enters the next one without a decode and without
    # being written from elements again: the lane only writes unit tables
    M = walsh(3)
    x = Signal.from_ints(M.ring, [3, -1, 4, 1, -5, 9, 2, -6])
    y, _ = fast_apply(M.tree, x)
    written, decoded = [], []
    lane_planes, decode = RationalsContext._lane_planes, transform._decode_planes
    monkeypatch.setattr(RationalsContext, "_lane_planes", lambda r, u: written.append(len(u)) or lane_planes(r, u))
    monkeypatch.setattr(transform, "_decode_planes", lambda *a: decoded.append(1) or decode(*a))
    back = ight(M, y)
    assert max(written) <= 2 and decoded == [] and y._elements is None
    assert back == x and decoded == [1]


# --- lane forms kept per matrix ---


def test_warm_round_trip_writes_planes_once(monkeypatch):
    # each leaf keeps its starred matrix and the lane form of its units, and
    # ight keeps its v^-1 leaf: a warm round trip writes only the signal
    W = walsh(12)
    x0, x = (Signal.from_ints(W.ring, [(7 * k + s) % 19 - 9 for k in range(4096)]) for s in (0, 1))
    assert ight(W, fast_apply(W.tree, x0)[0]) == x0
    written = []
    lane_planes = RationalsContext._lane_planes
    monkeypatch.setattr(RationalsContext, "_lane_planes", lambda r, u: written.append(len(u)) or lane_planes(r, u))
    back = ight(W, fast_apply(W.tree, x)[0])
    assert written == [4096]
    monkeypatch.undo()
    assert back == x


def _fresh(node):
    """A copy of the tree whose leaf matrices are new objects, with nothing
    kept on them yet."""
    if isinstance(node, Leaf):
        return Leaf(GMatrix.from_rows(node.matrix.ring, node.matrix.rows()))
    if isinstance(node, TensorNode):
        return TensorNode(_fresh(node.left), _fresh(node.right))
    return PermutedNode(_fresh(node.child), node.rowp, node.colp)


def _transforms(tree, M, x):
    """ght, fast_apply and, where v is invertible, ight of x."""
    ch = x.ring.characteristic()
    out = [ght(M, x), fast_apply(tree, x)[0]]
    return out + [ight(M, x)] if not ch or M.order % ch else out


@settings(max_examples=100)
@given(walks())
# each walsh leaf first meets small batches in float32 (Q) or float64
# (Q(zeta4)), then entries near 2^60, which only Python integers hold exactly
@example((walsh(2, rationals()).tree, _q_signal([2**60 + 3, -(2**60), 5, 2**61 - 1])))
@example((walsh(3, cyclotomic(4)).tree, _zeta4_signal([(2**59 + k, -(2**58)) for k in range(8)])))
def test_kept_lane_forms_give_what_fresh_matrices_give(case):
    tree, x = case
    ring, M = x.ring, tree.expand()
    small = Signal.from_ints(ring, [k % 5 - 2 for k in range(tree.order)])
    signals = [small, x]
    if ring.is_exact:
        signals.append(Signal.from_ints(ring, [(-1) ** k * 2**60 + k for k in range(tree.order)]))
    # M and its leaves keep what each call derives; every fresh copy starts
    # with nothing kept
    for y in signals:
        fresh = _fresh(tree)
        assert _transforms(tree, M, y) == _transforms(fresh, fresh.expand(), y)
    F = _fresh(tree).expand()
    assert equal(mat_mul(M, M), mat_mul(F, _fresh(tree).expand()))
    assert equal(mat_mul(M, star(M)), mat_mul(F, star(_fresh(tree).expand())))
