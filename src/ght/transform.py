"""The transform pair and fast evaluation through recorded factor trees.

Forward: xhat = B x. Inverse: x = v^(-1) B* xhat, which needs the order v to
be invertible in the ring (char R must not divide v). All three transforms
run one kernel, a matrix times a batch of columns, axis-wise over a factor
tree (Van Loan, "The ubiquitous Kronecker product", 2000): ght over the
one-leaf tree of B, fast_apply over a given tree, and ight over the starred
tree of B, as (A (x) B)* = A* (x) B*. Tensor factors of orders v_1..v_k cost
v*(v_1+...+v_k) multiplications instead of v^2, as tree_cost counts.

The kernel runs on the numeric lane of ght.matrix, on every backend. A
signal is written once as the backend's d coefficient planes over one
carried denominator (integers on the exact backends, one complex128 plane
on C), carried as d columns per vector. Each leaf is one BLAS product of its
unit planes per block of rows (matrix._lane_apply) and one reduction by the
backend; the denominators of the leaf units (and ight's 1/v) join the
carried one, and the result is decoded once per distinct coefficient vector
at the end. Each leaf picks its own dtype from the batch it meets, so a
batch whose coefficients grow past float64's exact range goes on in Python
integers.

A matrix's tree is trusted when the library built it: tensor and permute of
matrices with trusted trees, dft_matrix, the catalog, and fileio's loads,
which expand a tree-only file or check a tree against the entries. A tree
passed to GMatrix(..., tree=) or from_rows(..., tree=) is unchecked
(GMatrix.tree_trusted is false). ight walks B's tree only when it is
trusted, and not for a small DFT; fast_apply walks the tree it is given,
whatever its origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (
    DftNode,
    FactorTree,
    GMatrix,
    Leaf,
    MatrixError,
    PermutedNode,
    TensorNode,
    _decode_planes,
    _lane_apply,
)
from .ring import RingContext


@dataclass(frozen=True)
class Signal:
    """Length-v sequence of ring elements."""

    ring: RingContext
    elements: tuple

    @classmethod
    def from_ints(cls, ring, values):
        return cls(ring, tuple(ring.from_int(n) for n in values))

    @property
    def length(self):
        return len(self.elements)


@dataclass(frozen=True)
class OpCount:
    mul: int = 0
    add: int = 0


def _product(M: GMatrix, X, den, ring):
    """M times each vector of the batch X / den, whose entries lie in ring,
    as a pair (Y, den') with the product equal to Y / den'.

    The batch holds d columns per vector, its coefficient planes, and M's
    unit planes over their denominator d_M meet it in matrix._lane_apply,
    giving the planes of the product over den * d_M."""
    if M.ring.spec != ring.spec:
        raise MatrixError("ring mismatch")
    big = int(np.abs(X).max()) if ring.is_exact else None

    def batch(dtype):
        # float lane values are integers, which an object batch keeps as ints
        if dtype == object and X.dtype.kind == "f":
            return X.astype(np.int64).astype(object)
        return X.astype(dtype, copy=False)

    planes, den_m = _lane_apply(M, batch, range(ring._lane_dim), big)
    return planes.reshape(M.order, -1), den * den_m


def _walk(node: FactorTree, X, den, ring):
    """The matrix of node times each vector of the batch X / den, as a pair
    like _product's. A tensor node of orders (a, b) views a column as an
    a x b array and applies its right factor along the length-b axis, then
    its left factor along the other."""
    if isinstance(node, Leaf):
        return _product(node.matrix, X, den, ring)
    if isinstance(node, DftNode):
        return _walk(node.tree, X, den, ring)
    if isinstance(node, TensorNode):
        a, b = node.left.order, node.right.order
        Y = X.reshape(a, b, -1).transpose(1, 0, 2).reshape(b, -1)
        Y, den = _walk(node.right, Y, den, ring)
        Y = Y.reshape(b, a, -1).transpose(1, 0, 2).reshape(a, -1)
        Y, den = _walk(node.left, Y, den, ring)
        return Y.reshape(a * b, -1), den
    if isinstance(node, PermutedNode):
        Z, den = _walk(node.child, X[list(node.colp.image)], den, ring)
        out = np.empty_like(Z)
        out[list(node.rowp.image)] = Z
        return out, den
    raise MatrixError(f"unknown tree node {node!r}")


def _apply(tree: FactorTree, x: Signal) -> Signal:
    """The matrix of tree times x, with x as a batch of one vector. The
    signal enters the lane as its coefficient planes over their common
    denominator, Python integers until the first leaf picks a dtype; the
    carried denominator divides the result once at the end."""
    if tree.order != x.length:
        raise MatrixError("signal length does not match the matrix order")
    ring = x.ring
    planes, den = ring._lane_planes(x.elements)
    X = np.array(planes, dtype=object if ring.is_exact else np.complex128).T
    y, den = _walk(tree, X, den, ring)
    units, codes = _decode_planes(ring, y.reshape(-1, ring._lane_dim), den)
    return Signal(ring, tuple(units[k] for k in codes.tolist()))


def ght(B: GMatrix, x: Signal) -> Signal:
    """Forward transform xhat = B x, in exact ring arithmetic: the naive
    product with the whole matrix, ignoring its tree."""
    return _apply(Leaf(B), x)


# below this many lane values per column, v * d for d coefficient planes, a
# DFT's Good-Thomas walk costs more than its one table product
DFT_WALK_MIN = 256


def ight(B: GMatrix, xhat: Signal) -> Signal:
    """Inverse transform x = v^(-1) B* xhat; requires v invertible in R.

    Walks the starred tree of B, B.as_tree().star(), so like fast_apply it
    costs v * (v_1 + ... + v_k) multiplications over tensor factors of
    orders v_1..v_k. B is one leaf instead when its tree is unchecked, or
    when B is a DFT with v * d below DFT_WALK_MIN, where one product of the
    table is cheaper than the walk. v^(-1) enters as a 1 x 1 leaf tensored
    on the left, so over Q it joins the carried denominator."""
    v_inv = GMatrix.from_rows(B.ring, [[B.ring.int_inverse(B.order)]])
    small_dft = isinstance(B.tree, DftNode) and B.order * B.ring._lane_dim < DFT_WALK_MIN
    tree = B.as_tree() if B.tree_trusted and not small_dft else Leaf(B)
    return _apply(TensorNode(Leaf(v_inv), tree.star()), xhat)


def tree_cost(tree: FactorTree) -> OpCount:
    """Ring multiplications and additions that fast_apply spends on one
    signal; a leaf of order a costs a^2 and a(a-1)."""
    if isinstance(tree, Leaf):
        a = tree.order
        return OpCount(a * a, a * (a - 1))
    if isinstance(tree, TensorNode):
        a, b = tree.left.order, tree.right.order
        left, right = tree_cost(tree.left), tree_cost(tree.right)
        return OpCount(a * right.mul + b * left.mul, a * right.add + b * left.add)
    if isinstance(tree, PermutedNode):
        return tree_cost(tree.child)
    if isinstance(tree, DftNode):
        return tree_cost(tree.tree)
    raise MatrixError(f"unknown tree node {tree!r}")


def fast_apply(tree: FactorTree, x: Signal):
    """Apply the matrix described by a factor tree, node by node.

    Returns (Signal, OpCount): the output equals the naive product with the
    expanded matrix, and the count is tree_cost(tree).
    """
    return _apply(tree, x), tree_cost(tree)
