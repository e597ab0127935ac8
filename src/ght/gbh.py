"""Generalised Butson Hadamard verification and the basic constructors.

A square matrix M of unit entries over R is GBH when M M* = M* M = v I_v and
char R does not divide v. Every backend is a commutative field, so with v
invertible M M* = v I gives M* = v M^-1 and hence M* M = v I: verification
checks M M* = v I and the characteristic, exactly on exact backends and
within tol on the complex one.

Each distinct unit of M has its powers walked once. The walk gives the
unit's order, for the entry-group order w, and on exact backends the power
before 1, which is the unit's inverse; M* is those inverses on the
transposed index array. M M* then takes the numeric lane of ght.matrix: one
BLAS product of coefficient planes, compared plane by plane with v I.
Where the lane's bound fails, M M* is the per-entry product of mat_mul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix import GMatrix, MatrixError, _lane_product, mat_mul, star
from .ring import RingContext, RingElement, RingError


@dataclass
class GbhReport:
    """Outcome of verify_gbh.

    w is the order of the group generated by the entries, or None when some
    entry order exceeded the search bound (infinite/unknown). method names
    the route M M* took: "numeric-lane" or "per-entry".
    """

    is_gbh: bool
    v: int
    w: int | None
    char_check: bool
    method: str
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
        lines.append(f"method: {self.method}")
        return "\n".join(lines)


def _power_walk(u: RingElement, bound):
    """(order, inverse) of the unit u from its powers u, u^2, ..., u^bound:
    the order is the first k with u^k == 1 and the inverse u^(k-1). When no
    power up to the bound is 1 the order is None and the inverse is computed.
    On the complex backend u^(k-1) is only within tol of the inverse, so the
    inverse is always computed there."""
    one = u.ring.one()
    before, acc = one, u
    for k in range(1, bound + 1):
        if acc == one:
            return k, before if u.ring.is_exact else u.inverse()
        before, acc = acc, acc * u
    return None, u.inverse()


def verify_gbh(M: GMatrix) -> GbhReport:
    """Check M M* = v I and char R does not divide v; M* M = v I follows.

    failures are the positions of M M* that differ from v I, in row-major
    order (within tol on the complex backend). On an exact backend a walk
    stops after unit_order_hint() powers, the order of its group of roots of
    unity, so a unit of any other order has order None; on the complex
    backend it stops after 2 * v * unit_order_hint().
    """
    v = M.order
    if v < 2:
        raise MatrixError("GBH matrices have order >= 2")
    ring = M.ring
    ch = ring.characteristic()
    char_check = ch == 0 or v % ch != 0
    bound = ring.unit_order_hint() * (1 if ring.is_exact else 2 * v)
    orders, inverses = zip(*(_power_walk(u, bound) for u in M.units))
    M_star = GMatrix._table(ring, inverses, M.idx.T)
    lane = _lane_product(M, M_star)
    if lane is None:
        P = mat_mul(M, M_star)
        is_v = np.array([u == ring.from_int(v) for u in P.units])
        is_zero = np.array([u == ring.zero() for u in P.units])
        bad = ~is_zero[P.idx]
        np.fill_diagonal(bad, ~is_v[np.diag(P.idx)])
    else:
        planes, den = lane
        # v I over den: the planes of the integer v times den on the
        # diagonal, 0 elsewhere
        v_planes, _ = ring._lane_planes([ring.from_int(v)])
        diag = np.arange(v)
        planes[diag, diag] -= np.array([c * den for (c,) in v_planes], dtype=planes.dtype)
        # an entry is bad when the sum of its |coefficients| exceeds tol (0 on
        # exact backends), summed plane by plane: numpy reduces along a short
        # last axis up to 40 times slower
        sizes = sum(np.abs(planes[:, :, m]) for m in range(planes.shape[2]))
        bad = sizes > (0 if ring.is_exact else ring.spec.tol)
    failures = [divmod(k, v) for k in np.flatnonzero(bad).tolist()]
    w = None if None in orders else math.lcm(*orders)
    return GbhReport(
        is_gbh=not failures and char_check,
        v=v,
        w=w,
        char_check=char_check,
        method="per-entry" if lane is None else "numeric-lane",
        failures=failures,
    )


def row_sums(M: GMatrix):
    """Row sums of M and column sums of the entrywise-inverse matrix.

    For a normalised GBH all sums except the first are zero.
    """
    zero = M.ring.zero()
    return [sum(r, zero) for r in M.rows()], [sum(r, zero) for r in star(M).rows()]


def dft_matrix(v, ring: RingContext) -> GMatrix:
    """[omega^(j*k)] for the canonical order-v root omega of the ring: the
    unit table of the v powers of omega, indexed by j*k mod v."""
    if v < 1:
        raise RingError("order must be positive")
    omega = ring.root_of_unity(v)
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    j = np.arange(v)
    M = GMatrix._table(ring, powers, np.outer(j, j) % v)
    M._validate_units()
    return M


def b3(ring: RingContext) -> GMatrix:
    """The normalised GBH(3, 3) built on a primitive cube root of unity."""
    beta = ring.root_of_unity(3)
    beta2 = beta * beta
    one = ring.one()
    return GMatrix.from_rows(
        ring,
        [[one, one, one], [one, beta, beta2], [one, beta2, beta]],
    )
