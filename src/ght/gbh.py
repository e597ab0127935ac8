"""Generalised Butson Hadamard verification and the basic constructors.

A square matrix M of unit entries over R is GBH when M M* = M* M = v I_v and
char R does not divide v. Every backend is a commutative field, so with v
invertible M M* = v I gives M* = v M^-1 and hence M* M = v I: verification
checks M M* = v I and the characteristic, exactly on exact backends and
within tol on the complex one.

The entry-group order w is the lcm of the orders of the distinct units of
M. An exact backend takes each order from the structure of its cyclic group
of roots of unity (RingContext._order): an index into the table of its
roots on Q(zeta_w), a descent through the prime factors of the group order
elsewhere. The complex backend searches the powers of all its units at once
with numpy. dft_matrix takes the powers of its root from
RingContext.root_powers, a slice of that table on Q(zeta_w).

On an exact backend a factor tree of two or more leaves decides
M M* = v I from its distinct leaves, since (A (x) B)(A (x) B)* = A A* (x) B B*.
Otherwise M* is the field inverses of the units on the transposed index
array, and M M* takes the numeric lane of ght.matrix: M* written as a lane
batch meets M in _lane_apply, one BLAS product of coefficient planes,
compared plane by plane with v I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix import DftNode, FactorTree, GMatrix, Leaf, MatrixError, Permutation, PermutedNode, TensorNode
from .matrix import _lane_apply, _lane_batch, _lane_of, star
from .ring import RingContext, RingError, _prime_factors


@dataclass
class GbhReport:
    """Outcome of verify_gbh.

    w is the order of the group generated by the entries, or None when some
    entry is no root of unity (infinite/unknown; on the complex backend,
    when no power up to the search bound is within tol of 1). method names
    the route that decided M M* = v I: "tree" (the leaves of its factor
    tree) or "numeric-lane" (the product M M*).
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


# complex values per block of powers in _complex_orders: 1 MB per temporary
_POWER_BLOCK = 2**16


def _complex_orders(z, bound, tol):
    """For each complex unit of the array z, the first k <= bound with
    |z^k - 1| <= tol, or None. The powers are the sequential products z,
    z*z, (z*z)*z, ... that a walk takes one at a time, here for all live
    units together in blocks of powers; a unit leaves once its order is
    found."""
    orders = [None] * len(z)
    live = np.arange(len(z))
    acc = np.ones(len(z), dtype=np.complex128)
    k = 0
    while live.size and k < bound:
        step = min(bound - k, max(1, _POWER_BLOCK // live.size))
        factors = np.broadcast_to(z[live, None], (live.size, step))
        powers = np.cumprod(np.concatenate([acc[:, None], factors], axis=1), axis=1)[:, 1:]
        hit = np.abs(powers - 1) <= tol
        first = hit.argmax(axis=1)
        found = hit[np.arange(live.size), first]
        for i, f in zip(live[found].tolist(), first[found].tolist()):
            orders[i] = k + f + 1
        acc, live = powers[~found, -1], live[~found]
        k += step
    return orders


def _product_failures(M: GMatrix):
    """The positions of M M* that differ from v I, in row-major order
    (within tol on the complex backend)."""
    ring, v, S = M.ring, M.order, star(M)
    planes, den = _lane_apply(M, *_lane_batch(_lane_of(S), S.idx))
    # v I over den: the planes of the integer v times den on the diagonal,
    # 0 elsewhere
    v_planes, _ = ring._lane_planes([ring.from_int(v)])
    diag = np.arange(v)
    planes[diag, diag] -= np.array([c * den for (c,) in v_planes], dtype=planes.dtype)
    # an entry is bad when the sum of its |coefficients| exceeds tol (0 on
    # exact backends), summed plane by plane: numpy reduces along a short
    # last axis up to 40 times slower
    sizes = np.abs(planes[:, :, 0])
    for m in range(1, planes.shape[2]):
        sizes += np.abs(planes[:, :, m])
    bad = sizes > (0 if ring.is_exact else ring.spec.tol)
    return [divmod(k, v) for k in np.flatnonzero(bad).tolist()]


def _leaves_pass(M: GMatrix):
    """Whether M's factor tree of two or more leaves proves
    M M* = v I: (A (x) B)(A (x) B)* = A A* (x) B B*, and a permuted matrix
    P M Q has P M Q (P M Q)* = P M M* P^-1, so the products of the leaves
    of orders v_i with v_i I give v I. Each distinct leaf object is checked
    once; walsh(t) has t leaves and one of them."""
    if M.tree is None or not M.ring.is_exact:
        return False
    leaves = M.tree.leaves()
    distinct = {id(L): L for L in leaves}.values()
    return len(leaves) > 1 and all(not _product_failures(L) for L in distinct)


def verify_gbh(M: GMatrix) -> GbhReport:
    """Check M M* = v I and char R does not divide v; M* M = v I follows.

    failures are the positions of M M* that differ from v I, in row-major
    order (within tol on the complex backend). On an exact backend a unit
    that is no root of unity has order None; on the complex backend, a unit
    none of whose first 2 * v * unit_order_hint() powers is within tol of 1.

    On an exact backend a matrix whose tree has two or more leaves, all of
    them passing, is decided by its leaves (method "tree"); its tree expands
    to it (see ght.matrix). No tree, a one-leaf tree, the complex backend,
    whose tolerance is defined on M M* itself, and a failing leaf, whose
    failure positions the report lists, take the product M M*.
    """
    v = M.order
    if v < 2:
        raise MatrixError("GBH matrices have order >= 2")
    ring = M.ring
    ch = ring.characteristic()
    char_check = ch == 0 or v % ch != 0
    if ring.is_exact:
        orders = [ring._order(u.payload) for u in M.units]
    else:
        z = np.array([u.payload for u in M.units], dtype=np.complex128)
        orders = _complex_orders(z, 2 * v * ring.unit_order_hint(), ring.spec.tol)
    by_tree = _leaves_pass(M)
    failures = [] if by_tree else _product_failures(M)
    w = None if None in orders else math.lcm(*orders)
    return GbhReport(
        is_gbh=not failures and char_check,
        v=v,
        w=w,
        char_check=char_check,
        method="tree" if by_tree else "numeric-lane",
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
    unit table of the v powers of omega, indexed by j*k mod v, with its
    Good-Thomas tree (a DftNode) down to prime-power leaves."""
    if v < 1:
        raise RingError("order must be positive")
    powers = ring.root_powers(v)
    F = _power_table(ring, powers)
    F._validate_units()
    return GMatrix._table(ring, powers, F.idx, DftNode(F, _good_thomas(F)))


def _power_table(ring, powers):
    """The table [powers[j*k mod v]], v = len(powers), without a tree."""
    v = len(powers)
    j = np.arange(v, dtype=np.min_scalar_type(v * v))  # j*k never wraps
    return GMatrix._table(ring, powers, np.outer(j, j) % v)


def _good_thomas(F: GMatrix) -> FactorTree:
    """The tree of the DFT table F of order v, whose units are the powers of
    omega, down to prime-power leaves (Good, 1958; Burrus, 1977).

    For v = q r with q the part of v in its least prime, F = P (F_q (x) F_r) Q,
    where F_q and F_r are the tables of dft_matrix(q) and dft_matrix(r), on
    the canonical roots omega^(r s) and omega^(q t). Row j is row
    (j mod q, j mod r) of the tensor product, and column (k1, k2) is column
    r s k1 + q t k2 mod v: j k is congruent to r s j k1 modulo q and to
    q t j k2 modulo r, so by the Chinese remainder theorem omega^(j k) is
    the product of the two factor entries."""
    ring, v, powers = F.ring, F.order, F.units
    primes = _prime_factors(v)
    if len(primes) < 2:
        return Leaf(F)
    q = math.gcd(v, primes[0] ** v.bit_length())
    r = v // q
    # the factors' own powers, so that the leaves are dft_matrix(q) and
    # dft_matrix(r) exactly: on C, powers[r] = exp(-2 pi i r / v) may differ
    # from exp(-2 pi i / q) in its last bits
    Fq, Fr = _power_table(ring, ring.root_powers(q)), _power_table(ring, ring.root_powers(r))
    # the canonical roots of C and Q(zeta_w) are sent to exp(-2 pi i / v), so
    # omega^r is omega_q and omega^q is omega_r; elsewhere s and t are found
    # by exact comparison, which on C would depend on its tol
    s = t = 1
    if ring.is_exact:
        s = next(s for s in range(q) if powers[r * s] == Fq.units[1])
        t = next(t for t in range(r) if powers[q * t] == Fr.units[1])
    j = np.arange(v)
    rowp = np.empty(v, dtype=np.intp)
    rowp[(j % q) * r + j % r] = j
    k1, k2 = np.divmod(j, r)
    colp = (r * s * k1 + q * t * k2) % v
    perms = (Permutation(tuple(p.tolist())) for p in (rowp, colp))
    return PermutedNode(TensorNode(_good_thomas(Fq), _good_thomas(Fr)), *perms)


def b3(ring: RingContext) -> GMatrix:
    """The normalised GBH(3, 3) built on a primitive cube root of unity."""
    one, beta, beta2 = ring.root_powers(3)
    return GMatrix.from_rows(
        ring,
        [[one, one, one], [one, beta, beta2], [one, beta2, beta]],
    )
