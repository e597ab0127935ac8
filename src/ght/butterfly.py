"""Butterfly nodes of factor trees: the doubling node of the BIFORE
recursion (Ahmed, Rao and Schultz, 1971), D(A, B) = [[A, A], [B, -B]],
which catalog.cbt builds its matrices from.

A double node is one node kind of ght.matrix's protocol (FactorTree): it
walks, stars, expands, proves and writes itself. Its walk takes the
halves' walks and one butterfly of sums and differences, F_2 (x) I, which
the lane kernel (matrix._lane_apply) applies as it applies a leaf, with
the dtype, bound and reduction modulo p it picks for any leaf; the halves'
outputs are brought to one denominator (_one_den).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matrix import (
    FactorTree,
    GMatrix,
    MatrixError,
    _check_same_ring,
    _lane_apply,
    _lane_cast,
    _lane_dtype,
    _Pending,
    _row_blocks,
    _unit_table,
)


@dataclass(frozen=True)
class DoubleNode(FactorTree):
    """D(A, B) = [[A, A], [B, -B]] = diag(A, B) (F_2 (x) I), the doubling
    step of the BIFORE recursion (Ahmed, Rao and Schultz, 1971), for halves
    top = A and bottom = B of one order; with columns set, its column form
    [[A, B], [A, -B]] = (F_2 (x) I) diag(A, B). Each form stars to the
    other, as the entrywise inverse of -b is -b^-1: D(A, B)* = [[A*, B*],
    [A*, -B*]]."""

    top: FactorTree
    bottom: FactorTree
    columns: bool = False
    kind = "double"

    def __post_init__(self):
        if self.top.order != self.bottom.order:
            raise MatrixError(f"a double node's halves have orders {self.top.order} and {self.bottom.order}")

    @property
    def order(self):
        return 2 * self.top.order

    def expand(self):
        """The block matrix, whose units are A's, B's and their negatives,
        each once, and whose index is pending: its first read copies each
        quadrant from A.idx or B.idx, or gathers it through their codes by
        row blocks where these are not the identity."""
        A, B = self.top.expand(), self.bottom.expand()
        _check_same_ring(A, B)
        units, codes = _unit_table(A.units + B.units + tuple(-u for u in B.units))
        dtype = np.min_scalar_type(len(units) - 1)
        a, b, neg = (c.astype(dtype) for c in np.split(codes, [len(A.units), len(A.units) + len(B.units)]))
        quadrants = [[(a, A), (b, B)], [(a, A), (neg, B)]] if self.columns else [[(a, A), (a, A)], [(b, B), (neg, B)]]

        def write():
            h = A.order
            idx = np.empty((2, h, 2, h), dtype=dtype)
            for r, c in itertools.product(range(2), repeat=2):
                code, M = quadrants[r][c]
                if np.array_equal(code, np.arange(len(code))):
                    idx[r, :, c] = M.idx
                    continue
                for rows in _row_blocks(h, h):
                    np.take(code, M.idx[rows], out=idx[r, rows, c], mode="clip")
            return idx.reshape(2 * h, 2 * h)

        return GMatrix._table(A.ring, units, _Pending(self.order, write), self)

    def star(self):
        return DoubleNode(self.top.star(), self.bottom.star(), not self.columns)

    @cached_property
    def _butterfly(self):
        return _f2(self.leaves()[0].ring)

    def walk(self, X, den, big):
        """(A(x1 + x2), B(x1 - x2)), or in column form (A x1 + B x2,
        A x1 - B x2): the butterfly F_2 (x) I, the leaf F_2 walking X as a
        (2, -1) batch, before the halves or after them, which meet over one
        denominator (_one_den)."""
        h, c = self.top.order, X.shape[1]
        if not self.columns:
            X, den, big = _lane_apply(self._butterfly, X.reshape(2, -1), den, big)
            X = X.reshape(2 * h, c)
        ring = self._butterfly.ring
        halves, den, big = _one_den(ring, (self.top.walk(X[:h], den, big), self.bottom.walk(X[h:], den, big)))
        if not self.columns:
            return np.concatenate(halves), den, big
        Y, den, big = _lane_apply(self._butterfly, np.concatenate(halves).reshape(2, -1), den, big)
        return Y.reshape(2 * h, c), den, big

    def leaves(self):
        return self.top.leaves() + self.bottom.leaves()

    def cost(self):
        """Its halves' costs and the v additions of its butterfly."""
        (ma, aa), (mb, ab) = self.top.cost(), self.bottom.cost()
        return ma + mb, aa + ab + self.order

    def gbh_proof(self, leaf_passes):
        """D D* = [[2 A A*, 0], [0, 2 B B*]], and the column form's product is
        [[A A* + B B*, A A* - B B*], [A A* - B B*, A A* + B B*]]: by its
        halves, whose products are then (v / 2) I each."""
        return "tree" if self.top.gbh_proof(leaf_passes) and self.bottom.gbh_proof(leaf_passes) else None

    def to_json(self, write_leaf):
        data = {"kind": self.kind, "top": self.top.to_json(write_leaf), "bottom": self.bottom.to_json(write_leaf)}
        return dict(data, columns=True) if self.columns else data

    @classmethod
    def from_json(cls, data, read):
        return cls(read.node(data, "top", beside=2), read.node(data, "bottom", beside=2), read.flag(data, "columns"))


@lru_cache(maxsize=64)
def _f2(ring):
    """F_2 = [[1, 1], [1, -1]] over ring, kept with its lane form for every
    double node over that ring, one object per spec."""
    return GMatrix.from_rows(ring, [[1, 1], [1, -1]])


def _one_den(ring, walked):
    """((Y, ...), den, big): the walks' outputs (Y, den, big), each as an
    (order, -1) array over den, the lcm of their denominators, with big the
    largest of their bounds once scaled (None on C), in the one dtype that
    _lane_dtype picks for big, so that they concatenate exactly."""
    den = math.lcm(*(d for _, d, _ in walked))
    if not ring.is_exact:
        return tuple(Y.reshape(len(Y), -1) for Y, _, _ in walked), den, None
    big = max(b * (den // d) for _, d, b in walked)
    dtype = _lane_dtype(ring, 0, big)[0]
    ys = (_lane_cast(Y.reshape(len(Y), -1), dtype) for Y, _, _ in walked)
    return tuple(Y if d == den else Y * (den // d) for Y, (_, d, _) in zip(ys, walked)), den, big
