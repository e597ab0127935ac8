"""Generalised Butson Hadamard verification and the basic constructors.

A square matrix M of unit entries over R is GBH when M M* = M* M = v I_v and
char R does not divide v. Every backend is a commutative field, so with v
invertible M M* = v I gives M* = v M^-1 and hence M* M = v I: verification
checks M M* = v I and the characteristic, exactly on exact backends and
within tol on the complex one. M M* comes from the unit table of M (see
ght.matrix): each distinct value of the product is compared with v or 0 once
and mapped back to positions through its index array, and the entry-group
order is taken over the distinct units only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix import GMatrix, MatrixError, mat_mul, star
from .ring import RingContext, RingElement, RingError


@dataclass
class GbhReport:
    """Outcome of verify_gbh.

    w is the order of the group generated by the entries, or None when some
    entry order exceeded the search bound (infinite/unknown).
    """

    is_gbh: bool
    v: int
    w: int | None
    char_check: bool
    failures: list = field(default_factory=list)

    def to_text(self):
        lines = [
            f"is-gbh: {str(self.is_gbh).lower()}",
            f"order: {self.v}",
            f"entry-group-order: {self.w if self.w is not None else 'infinite/unknown'}",
            f"char-check: {str(self.char_check).lower()}",
            f"failure-count: {len(self.failures)}",
        ]
        if self.failures:
            head = ", ".join(f"({i},{j})" for i, j in self.failures[:10])
            lines.append(f"failures: {head}")
        return "\n".join(lines)


def _element_order(el: RingElement, bound):
    one = el.ring.one()
    acc = el
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * el
    return None


def _entry_group_order(M: GMatrix, bound):
    w = 1
    for u in M.units:
        o = _element_order(u, bound)
        if o is None:
            return None
        w = w * o // math.gcd(w, o)
    return w


def verify_gbh(M: GMatrix) -> GbhReport:
    """Check M M* = v I and char R does not divide v; M* M = v I follows.

    failures are the positions of M M* that differ from v I, in row-major
    order (within tol on the complex backend).
    """
    v = M.order
    if v < 2:
        raise MatrixError("GBH matrices have order >= 2")
    ring = M.ring
    ch = ring.characteristic()
    char_check = ch == 0 or v % ch != 0
    P = mat_mul(M, star(M))
    is_v = np.array([u == ring.from_int(v) for u in P.units])
    is_zero = np.array([u == ring.zero() for u in P.units])
    bad = ~is_zero[P.idx]
    np.fill_diagonal(bad, ~is_v[np.diag(P.idx)])
    failures = [(int(i), int(j)) for i, j in np.argwhere(bad)]
    w = _entry_group_order(M, 2 * v * ring.unit_order_hint())
    return GbhReport(
        is_gbh=not failures and char_check,
        v=v,
        w=w,
        char_check=char_check,
        failures=failures,
    )


def row_sums(M: GMatrix):
    """Row sums of M and column sums of the entrywise-inverse matrix.

    For a normalised GBH all sums except the first are zero.
    """
    zero = M.ring.zero()
    return [sum(r, zero) for r in M.rows()], [sum(r, zero) for r in star(M).rows()]


def dft_matrix(v, ring: RingContext) -> GMatrix:
    """[omega^(j*k)] for the canonical order-v root omega of the ring."""
    if v < 1:
        raise RingError("order must be positive")
    omega = ring.root_of_unity(v)
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    rows = [[powers[(j * k) % v] for k in range(v)] for j in range(v)]
    return GMatrix.from_rows(ring, rows)


def b3(ring: RingContext) -> GMatrix:
    """The normalised GBH(3, 3) built on a primitive cube root of unity."""
    beta = ring.root_of_unity(3)
    beta2 = beta * beta
    one = ring.one()
    return GMatrix.from_rows(
        ring,
        [[one, one, one], [one, beta, beta2], [one, beta2, beta]],
    )
