"""The transform pair and fast evaluation through recorded factor trees.

Forward: xhat = B x. Inverse: x = v^(-1) B* xhat, which needs the order v to
be invertible in the ring (char R must not divide v). ght is one kernel, a
matrix times a batch of columns, on one column. fast_apply runs the same
kernel axis-wise over the factor tree (Van Loan, "The ubiquitous Kronecker
product", 2000), so tensor factors of orders v_1..v_k cost v*(v_1+...+v_k)
multiplications instead of v^2, as tree_cost counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import (
    FactorTree,
    GMatrix,
    Leaf,
    MatrixError,
    PermutedNode,
    TensorNode,
    star,
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


def _integers(elements):
    """The elements as an int64 array when every one is an integer rational
    smaller than 2^53 in size, else None."""
    out = []
    for e in elements:
        p = e.payload
        if not isinstance(p, Fraction) or p.denominator != 1 or abs(p) >= 2**53:
            return None
        out.append(int(p))
    return np.array(out, dtype=np.int64)


def _product(M: GMatrix, X, ring):
    """M times each column of the (v, n) batch X, whose entries lie in ring.
    An int64 batch against integer units runs in float64 blocks of 256 rows,
    exact while v * max|unit| * max|X| < 2^53, and stays int64; any other
    batch is taken as ring elements, one ring.dot per result entry."""
    if M.ring.spec != ring.spec:
        raise MatrixError("ring mismatch")
    v = M.order
    if X.dtype != object:
        units = _integers(M.units)
        if units is not None and v * int(abs(units).max()) * int(abs(X).max()) < 2**53:
            u = units.astype(np.float64)
            blocks = [u[M.idx[r : r + 256]] @ X for r in range(0, v, 256)]
            return np.concatenate(blocks).astype(np.int64)
        elements = [ring.from_int(n) for n in X.ravel().tolist()]
        X = np.array(elements, dtype=object).reshape(X.shape)
    cols = X.T.tolist()
    out = [[ring.dot(zip(row, col)) for col in cols] for row in M.rows()]
    return np.array(out, dtype=object)


def _walk(node: FactorTree, X, ring):
    """The matrix of node times each column of the batch X. A tensor node of
    orders (a, b) views a column as an a x b array and applies its right
    factor along the length-b axis, then its left factor along the other."""
    if isinstance(node, Leaf):
        return _product(node.matrix, X, ring)
    if isinstance(node, TensorNode):
        a, b, n = node.left.order, node.right.order, X.shape[1]
        Y = X.reshape(a, b, n).transpose(1, 0, 2).reshape(b, a * n)
        Y = _walk(node.right, Y, ring).reshape(b, a, n).transpose(1, 0, 2)
        return _walk(node.left, Y.reshape(a, b * n), ring).reshape(a * b, n)
    if isinstance(node, PermutedNode):
        Z = _walk(node.child, X[list(node.colp.image)], ring)
        out = np.empty_like(Z)
        out[list(node.rowp.image)] = Z
        return out
    raise MatrixError(f"unknown tree node {node!r}")


def _apply(tree: FactorTree, x: Signal) -> Signal:
    """The matrix of tree times x, with x as a one-column batch."""
    if tree.order != x.length:
        raise MatrixError("signal length does not match the matrix order")
    ints = _integers(x.elements)
    column = np.array(x.elements, dtype=object) if ints is None else ints
    y = _walk(tree, column[:, None], x.ring)[:, 0]
    if y.dtype == object:
        return Signal(x.ring, tuple(y))
    return Signal(x.ring, tuple(map(x.ring.from_int, y.tolist())))


def ght(B: GMatrix, x: Signal) -> Signal:
    """Forward transform xhat = B x, in exact ring arithmetic."""
    return _apply(Leaf(B), x)


def ight(B: GMatrix, xhat: Signal) -> Signal:
    """Inverse transform x = v^(-1) B* xhat; requires v invertible in R."""
    v = B.order
    v_inv = B.ring.int_inverse(v)
    y = ght(star(B), xhat)
    return Signal(B.ring, tuple(v_inv * e for e in y.elements))


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
    raise MatrixError(f"unknown tree node {tree!r}")


def fast_apply(tree: FactorTree, x: Signal):
    """Apply the matrix described by a factor tree, node by node.

    Returns (Signal, OpCount): the output equals the naive product with the
    expanded matrix, and the count is tree_cost(tree).
    """
    return _apply(tree, x), tree_cost(tree)


@dataclass
class BenchRow:
    order: int
    naive_time: float | None
    fast_time: float | None
    naive_mul: int
    fast_mul: int


def bench(trees, repetitions: int = 0):
    """Op counts and (optionally) median wall times, naive vs tree apply.

    With repetitions == 0 only the deterministic operation counts are
    reported.
    """
    out = []
    for tree in trees:
        M = tree.expand()
        v = M.order
        naive_time = fast_time = None
        if repetitions > 0:
            ones = Signal.from_ints(M.ring, [1] * v)
            nt, ft = [], []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                ght(M, ones)
                nt.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                fast_apply(tree, ones)
                ft.append(time.perf_counter() - t0)
            naive_time = sorted(nt)[len(nt) // 2]
            fast_time = sorted(ft)[len(ft) // 2]
        out.append(
            BenchRow(
                order=v,
                naive_time=naive_time,
                fast_time=fast_time,
                naive_mul=v * v,
                fast_mul=tree_cost(tree).mul,
            )
        )
    return out


def bench_table(rows) -> str:
    """Delimited table, one line per order, fixed column order."""
    header = "order\tnaive-time\tfast-time\tnaive-ops\tfast-ops"
    fmt = lambda t: "-" if t is None else f"{t:.6f}"
    lines = [header] + [
        f"{r.order}\t{fmt(r.naive_time)}\t{fmt(r.fast_time)}\t{r.naive_mul}\t{r.fast_mul}"
        for r in rows
    ]
    return "\n".join(lines)
