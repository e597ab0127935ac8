"""The transform pair and fast evaluation through recorded factor trees.

Forward: xhat = B x. Inverse: x = v^(-1) B* xhat, which needs the order v to
be invertible in the ring (char R must not divide v). A matrix whose tree is
a chain of tensor factors of orders v_1..v_k applies in v*(v_1+...+v_k)
multiplications instead of v^2, by the usual mixed-radix schedule.
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

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self.ring.spec == other.ring.spec
            and self.length == other.length
            and all(a == b for a, b in zip(self.elements, other.elements))
        )


@dataclass(frozen=True)
class OpCount:
    mul: int = 0
    add: int = 0

    def __add__(self, other):
        return OpCount(self.mul + other.mul, self.add + other.add)


def _integers(elements):
    """The elements as ints when every one is an integer rational, else None."""
    out = []
    for e in elements:
        p = e.payload
        if not isinstance(p, Fraction) or p.denominator != 1:
            return None
        out.append(int(p))
    return out


def ght(B: GMatrix, x: Signal) -> Signal:
    """Forward transform xhat = B x, in exact ring arithmetic.

    When every unit of B and every signal entry is an integer, the product
    runs in float64 blocks of 256 rows, which is exact while v * max|unit| *
    max|x| < 2^53.
    """
    if x.length != B.order:
        raise MatrixError("signal length does not match matrix order")
    if x.ring.spec != B.ring.spec:
        raise MatrixError("ring mismatch")
    v = B.order
    ring = B.ring
    units = _integers(B.units)
    xs = _integers(x.elements) if units is not None else None
    if xs and v * max(map(abs, units)) * max(map(abs, xs)) < 2**53:
        u = np.array(units, dtype=np.float64)
        xv = np.array(xs, dtype=np.float64)
        out = np.concatenate(
            [u[B.idx[r : r + 256]] @ xv for r in range(0, v, 256)]
        )
        return Signal(ring, tuple(ring.from_int(int(c)) for c in out))
    return Signal(
        ring, tuple(ring.dot(zip(row, x.elements)) for row in B.rows())
    )


def ight(B: GMatrix, xhat: Signal) -> Signal:
    """Inverse transform x = v^(-1) B* xhat; requires v invertible in R."""
    v = B.order
    v_inv = B.ring.int_inverse(v)
    y = ght(star(B), xhat)
    return Signal(B.ring, tuple(v_inv * e for e in y.elements))


def fast_apply(tree: FactorTree, x: Signal):
    """Apply the matrix described by a factor tree, stage by stage.

    Tensor nodes of orders (a, b) over a length-ab segment run b-point
    transforms along the rows and a-point transforms down the columns;
    permuted nodes are pure index movement. Returns (Signal, OpCount); the
    output equals the naive product with the expanded matrix.
    """
    if tree.order != x.length:
        raise MatrixError("tree order does not match signal length")
    leaf_rows = {}

    def leaf_apply(M: GMatrix, vec):
        rows = leaf_rows.get(id(M))
        if rows is None:
            rows = M.rows()
            leaf_rows[id(M)] = rows
        a = M.order
        out = []
        for i in range(a):
            ri = rows[i]
            acc = ri[0] * vec[0]
            for j in range(1, a):
                acc = acc + ri[j] * vec[j]
            out.append(acc)
        return out, OpCount(a * a, a * (a - 1))

    def walk(node, vec):
        if isinstance(node, Leaf):
            return leaf_apply(node.matrix, vec)
        if isinstance(node, TensorNode):
            a = node.left.order
            b = node.right.order
            count = OpCount()
            tmp = [None] * (a * b)
            for i in range(a):
                seg, c = walk(node.right, vec[i * b : (i + 1) * b])
                tmp[i * b : (i + 1) * b] = seg
                count = count + c
            out = [None] * (a * b)
            for j in range(b):
                col, c = walk(node.left, tmp[j :: b])
                out[j :: b] = col
                count = count + c
            return out, count
        if isinstance(node, PermutedNode):
            gathered = [vec[node.colp.image[k]] for k in range(len(vec))]
            z, count = walk(node.child, gathered)
            out = [None] * len(vec)
            for k, zk in enumerate(z):
                out[node.rowp.image[k]] = zk
            return out, count
        raise MatrixError(f"unknown tree node {node!r}")

    out, count = walk(tree, list(x.elements))
    ring = out[0].ring
    return Signal(ring, tuple(out)), count


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
        ones = Signal.from_ints(M.ring, [1] * v)
        _, count = fast_apply(tree, ones)
        naive_time = fast_time = None
        if repetitions > 0:
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
                fast_mul=count.mul,
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
