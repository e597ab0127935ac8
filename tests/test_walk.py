"""The flat walk of a factor tree and the lane kernel it calls per leaf: one
kernel call per leaf in the order of the recursion, a carried bound that is
sound and never widens a dtype, and the operand a small matrix keeps."""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_transform import RINGS, _element, trees, walks

from ght import (
    DftNode,
    GMatrix,
    Permutation,
    Signal,
    cyclotomic,
    dft_matrix,
    fast_apply,
    ght,
    ight,
    mat_mul,
    permute,
    rationals,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght import gbh, matrix, transform
from ght.matrix import _BLOCK_VALUES, _lane_max, _lane_of

# a DFT over each ring of RINGS whose order the ring's roots of unity allow:
# a Good-Thomas tree (a permuted tensor node) from order 6
DFT_ORDERS = {"rationals": 2, "cyclotomic-rationals": 4}


@st.composite
def dft_walks(draw):
    """A walk whose tree holds a DftNode beside a random tree, tensored on
    either side and maybe permuted: the tree of a matrix built so, which
    keeps the DftNode of dft_matrix."""
    ring = draw(st.sampled_from(RINGS))
    dft = dft_matrix(DFT_ORDERS.get(ring.spec.kind, 6), ring)
    other = draw(trees(ring, 2, 16)).expand()
    M = tensor(dft, other) if draw(st.booleans()) else tensor(other, dft)
    if draw(st.booleans()):
        rowp, colp = (draw(st.permutations(range(M.order))) for _ in range(2))
        M = permute(M, Permutation(tuple(rowp)), Permutation(tuple(colp)))
    tree = M.tree
    assert any(isinstance(node, DftNode) for node in _nodes(tree))
    kind = draw(st.sampled_from(("small", "big", "fraction")))
    x = Signal(ring, tuple(_element(ring, kind, draw) for _ in range(tree.order)))
    return tree, x


def _nodes(tree):
    yield tree
    for child in ("left", "right", "child", "tree"):
        if hasattr(tree, child):
            yield from _nodes(getattr(tree, child))


def _invertible(ring, v):
    ch = ring.characteristic()
    return not ch or v % ch


@settings(max_examples=150)
@given(st.one_of(walks(), dft_walks()))
def test_a_walk_calls_the_kernel_once_per_leaf_in_reverse_order(case):
    # the flat walk fuses no leaves and keeps the recursion's order, so that
    # tree_cost describes the work done; ight walks the leaves of star(M)'s
    # tree the same way and applies its 1/v leaf last: the starred leaves of
    # M's tree, but for a DftNode, whose star is itself with its rows
    # negated and whose leaves are those of its own table
    tree, x = case
    ring, M = x.ring, tree.expand()
    calls = []
    lane_apply = matrix._lane_apply
    kernel = lambda A, *a: calls.append(A) or lane_apply(A, *a)
    with mock.patch.object(transform, "WALK_MIN", 1), mock.patch.object(matrix, "_lane_apply", kernel):
        fast_apply(tree, x)
        leaves = list(reversed(tree.leaves()))
        assert [A.order for A in calls] == [L.order for L in leaves]
        assert all(A is L for A, L in zip(calls, leaves))
        if _invertible(ring, M.order):
            calls.clear()
            ight(M, x)
            inverse = transform._inverse_leaf(ring, M.order).matrix
            assert calls == list(reversed(star(M).as_tree().leaves())) + [inverse]
            if not any(isinstance(node, DftNode) for node in _nodes(M.as_tree())):
                assert calls[:-1] == [star(L) for L in reversed(M.as_tree().leaves())]


def _checked_kernel(dtypes):
    """matrix._lane_apply, asserting on every exact call that the bound it is
    given holds, that it picks the dtype the measured batch would, and that
    the bound it returns holds; records the dtype of each output."""
    lane_apply = matrix._lane_apply

    def kernel(A, X, den, big_x):
        Y, den_y, big = lane_apply(A, X, den, big_x)
        if A.ring.is_exact:
            measured = _lane_max(X)
            assert big_x >= measured
            assert Y.dtype == lane_apply(A, X, den, measured)[0].dtype
            assert big >= _lane_max(Y)
        dtypes.append(Y.dtype)
        return Y, den_y, big

    return kernel


def _patched_kernel(stack, dtypes):
    kernel = _checked_kernel(dtypes)
    for module in (gbh, matrix):
        stack.enter_context(mock.patch.object(module, "_lane_apply", kernel))


@settings(max_examples=100)
@given(st.one_of(walks(), dft_walks()))
def test_the_carried_bound_is_sound_and_never_widens_a_dtype(case):
    # on all five backends: walks (every tree at WALK_MIN 1), one table each
    # way, and the table batches of verify_gbh and mat_mul
    tree, x = case
    ring, M = x.ring, tree.expand()
    dtypes = []
    with ExitStack() as stack:
        _patched_kernel(stack, dtypes)
        for walk_min in (transform.WALK_MIN, 1):
            with mock.patch.object(transform, "WALK_MIN", walk_min):
                ght(M, x)
                fast_apply(tree, x)
                if _invertible(ring, M.order):
                    ight(M, x)
        if M.order > 1:
            verify_gbh(M)
        mat_mul(M, star(M))
    assert dtypes


def _walsh_reference(values):
    """The Sylvester transform of a list of Python integers, stage by stage."""
    y, h = list(values), 1
    while h < len(y):
        for i in range(0, len(y), 2 * h):
            for j in range(i, i + h):
                y[j], y[j + h] = y[j] + y[j + h], y[j] - y[j + h]
        h *= 2
    return y


def test_a_walk_goes_on_in_python_integers_once_its_bound_passes_2_53():
    # entries near 2^44 double at each of walsh(12)'s 2-point stages: the
    # first leaves multiply float64, and the bound passes 2^53 partway
    W = walsh(12)
    values = [2**44 + (7 * k) % 19 - 9 for k in range(W.order)]
    x = Signal.from_ints(W.ring, values)
    dtypes = []
    with ExitStack() as stack:
        _patched_kernel(stack, dtypes)
        y, _ = fast_apply(W.tree, x)
        assert dtypes[0] == np.float64 and dtypes[-1] == object
        assert y == Signal.from_ints(W.ring, _walsh_reference(values))
        assert ight(W, y) == x


def _operands(M):
    """The operands kept on M's lane, by dtype."""
    return {key[0]: op for key, op in _lane_of(M)._stacks.items() if isinstance(key, tuple)}


def _assert_kept(M):
    """M keeps an operand exactly where it may, each read-only and equal to
    its stacked planes at M.idx."""
    lane = _lane_of(M)
    ops = _operands(M)
    if len(lane.nonzero()[0]) * M.order**2 > _BLOCK_VALUES:
        assert ops == {}
    for dtype, op in ops.items():
        assert not op.flags.writeable
        assert np.array_equal(op, lane.stack(dtype)[:, M.idx].reshape(-1, M.order))
    return ops


def test_star_and_its_matrix_each_keep_their_operand():
    # walsh(5) is below WALK_MIN: ght and ight each take one table, of M
    # and of star(M)
    M = GMatrix(rationals(), walsh(5).idx.astype(int) * -2 + 1)
    x = Signal.from_ints(M.ring, range(M.order))
    assert ight(M, ght(M, x)) == x
    ops, star_ops = _assert_kept(M), _assert_kept(star(M))
    assert set(ops) == set(star_ops) == {np.float32}
    assert ops[np.float32] is not star_ops[np.float32]
    assert ops[np.float32].shape == (M.order, M.order)


def test_a_matrix_past_the_cap_keeps_no_operand():
    # a 512 x 512 product takes several row blocks; a 256 x 256 table over
    # Q(zeta_4) with both planes nonzero meets a signal in one block of
    # 2 * 256^2 operand values, twice the cap
    W = GMatrix(rationals(), walsh(9).idx.astype(int) * -2 + 1)
    mat_mul(star(W), W)
    assert verify_gbh(W).is_gbh
    ring = cyclotomic(4)
    i = ring.root_of_unity(4)
    units = [ring.one(), i, -ring.one(), -i]
    rng = np.random.default_rng(3)
    Z = GMatrix._table(ring, units, rng.integers(0, 4, size=(256, 256), dtype=np.uint8))
    x = Signal.from_ints(ring, range(Z.order))
    ght(Z, x)
    for A in (W, star(W), Z):
        assert _lane_of(A)._stacks and _assert_kept(A) == {}
