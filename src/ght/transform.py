"""The transform pair and fast evaluation through recorded factor trees.

Forward: xhat = B x. Inverse: x = v^(-1) B* xhat, which needs the order v to
be invertible in the ring (char R must not divide v). All three transforms
run one kernel, a matrix times a batch of columns, axis-wise over a factor
tree (Van Loan, "The ubiquitous Kronecker product", 2000): ght over the
one-leaf tree of B, fast_apply over a given tree, and ight over the starred
tree of B, as (A (x) B)* = A* (x) B*. Tensor factors of orders v_1..v_k cost
v*(v_1+...+v_k) multiplications instead of v^2, as tree_cost counts.

The kernel has two lanes. A signal of Q elements takes the rational lane: it
is scaled once by the lcm of its denominators, each leaf runs as an exact
float64 product of integers, the denominators of the leaf units (and ight's
1/v) join one carried denominator, and the result is divided by it once at
the end. Any other signal, and a rational one whose values would reach 2^53,
takes the object lane: one ring.dot per result entry.

fast_apply and ight trust the tree. Trees built by tensor, permute and the
catalog are correct by construction, and fileio checks a loaded tree against
the entries; a tree passed to GMatrix(..., tree=) is not checked.
"""

from __future__ import annotations

import math
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


def _rationals(elements):
    """(numerators, denominator): the elements as an int64 array over the
    lcm of their denominators, when every one is a Q element and every
    numerator is smaller than 2^53 in size, else None."""
    payloads = [e.payload for e in elements]
    if not all(isinstance(p, Fraction) for p in payloads):
        return None
    den = math.lcm(*(p.denominator for p in payloads))
    nums = [p.numerator * (den // p.denominator) for p in payloads]
    if max(map(abs, nums)) >= 2**53:
        return None
    return np.array(nums, dtype=np.int64), den


def _elements(ring, X, den):
    """The Q elements X / den of an int64 batch, as an object array."""
    out = [ring.element(Fraction(n, den)) for n in X.ravel().tolist()]
    return np.array(out, dtype=object).reshape(X.shape)


def _product(M: GMatrix, X, den, ring):
    """M times each column of the (v, n) batch X / den, whose entries lie in
    ring, as a pair (Y, den') with the product equal to Y / den'.

    The rational lane takes an int64 batch against Q units, written as
    integers over their common denominator d: float64 blocks of 256 rows,
    exact while v * max|unit| * max|X| < 2^53, give int64 over den * d.
    Otherwise the object lane takes the batch as the ring elements X / den,
    one ring.dot per result entry, over 1."""
    if M.ring.spec != ring.spec:
        raise MatrixError("ring mismatch")
    v = M.order
    if X.dtype != object:
        units = _rationals(M.units)
        if units is not None and v * int(abs(units[0]).max()) * int(abs(X).max()) < 2**53:
            u = units[0].astype(np.float64)
            blocks = [u[M.idx[r : r + 256]] @ X for r in range(0, v, 256)]
            return np.concatenate(blocks).astype(np.int64), den * units[1]
        X = _elements(ring, X, den)
    cols = X.T.tolist()
    out = [[ring.dot(zip(row, col)) for col in cols] for row in M.rows()]
    return np.array(out, dtype=object), 1


def _walk(node: FactorTree, X, den, ring):
    """The matrix of node times each column of the batch X / den, as a pair
    like _product's. A tensor node of orders (a, b) views a column as an
    a x b array and applies its right factor along the length-b axis, then
    its left factor along the other."""
    if isinstance(node, Leaf):
        return _product(node.matrix, X, den, ring)
    if isinstance(node, TensorNode):
        a, b, n = node.left.order, node.right.order, X.shape[1]
        Y = X.reshape(a, b, n).transpose(1, 0, 2).reshape(b, a * n)
        Y, den = _walk(node.right, Y, den, ring)
        Y = Y.reshape(b, a, n).transpose(1, 0, 2).reshape(a, b * n)
        Y, den = _walk(node.left, Y, den, ring)
        return Y.reshape(a * b, n), den
    if isinstance(node, PermutedNode):
        Z, den = _walk(node.child, X[list(node.colp.image)], den, ring)
        out = np.empty_like(Z)
        out[list(node.rowp.image)] = Z
        return out, den
    raise MatrixError(f"unknown tree node {node!r}")


def _apply(tree: FactorTree, x: Signal) -> Signal:
    """The matrix of tree times x, with x as a one-column batch. A signal of
    Q elements is scaled once by the lcm of its denominators and enters the
    rational lane; the carried denominator divides the result once at the
    end. Any other signal walks the object lane."""
    if tree.order != x.length:
        raise MatrixError("signal length does not match the matrix order")
    scaled = _rationals(x.elements)
    if scaled is None:
        X, den = np.array(x.elements, dtype=object), 1
    else:
        X, den = scaled
    y, den = _walk(tree, X[:, None], den, x.ring)
    if y.dtype != object:
        y = _elements(x.ring, y, den)
    return Signal(x.ring, tuple(y[:, 0]))


def ght(B: GMatrix, x: Signal) -> Signal:
    """Forward transform xhat = B x, in exact ring arithmetic: the naive
    product with the whole matrix, ignoring its tree."""
    return _apply(Leaf(B), x)


def ight(B: GMatrix, xhat: Signal) -> Signal:
    """Inverse transform x = v^(-1) B* xhat; requires v invertible in R.

    Walks the starred tree of B, B.as_tree().star(), so like fast_apply it
    costs v * (v_1 + ... + v_k) multiplications over tensor factors of
    orders v_1..v_k, and like fast_apply it trusts B.tree. v^(-1) enters as a
    1 x 1 leaf tensored on the left, so over Q it joins the carried
    denominator."""
    v_inv = GMatrix.from_rows(B.ring, [[B.ring.int_inverse(B.order)]])
    return _apply(TensorNode(Leaf(v_inv), B.as_tree().star()), xhat)


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
