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

A matrix may be decided by its factor tree, each node by its kind
(FactorTree.gbh_proof): a DftNode by its generator, with no product;
tensor, permuted and double nodes by the nodes under them, since
(A (x) B)(A (x) B)* = A A* (x) B B* and D(A, B) D(A, B)* =
diag(2 A A*, 2 B B*); and a leaf, on an exact backend, by its own product.
On the complex backend a tree of DFT nodes decides a matrix through a
rounding bound on its units' distance from the exact roots of unity.
Otherwise M* is the field inverses of the units on the transposed index
array, and M M* takes the numeric lane of ght.matrix: M* written as a lane
batch, which M*'s lane keeps for a small table, meets M in _lane_apply, one
BLAS product of coefficient planes, from whose diagonal v is subtracted in
place; on an exact backend one any() then decides a pass.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrix import FactorTree, GMatrix, Leaf, MatrixError, Permutation, PermutedNode, TensorNode
from .matrix import _lane_apply, _lane_of, star
from .ring import RingContext, _prime_factors
from . import transform


@dataclass
class GbhReport:
    """Outcome of verify_gbh.

    w is the order of the group generated by the entries, or None when some
    entry is no root of unity (infinite/unknown; on the complex backend,
    when no power up to the search bound is within tol of 1). method names
    the route that decided M M* = v I: "generator" (a DFT by its node),
    "tree" (the nodes of its factor tree) or "numeric-lane" (the product
    M M*).
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
    (within tol on the complex backend). M* meets M as the lane batch that
    star(M)'s lane keeps (_UnitLane.batch); v den is subtracted in place
    on the diagonal of the product's (v * v, d) view, rows 0, v + 1, ...,
    so that on an exact backend one any() decides a pass, and only a
    failing product or a complex one is scanned entry by entry."""
    ring, v, S = M.ring, M.order, star(M)
    planes, den, _ = _lane_apply(M, *_lane_of(S).batch(S.idx))
    flat = planes.reshape(v * v, -1)
    v_planes, _ = ring._lane_planes([ring.from_int(v)])
    flat[:: v + 1] -= np.array([c * den for (c,) in v_planes], dtype=planes.dtype)
    if ring.is_exact and not flat.any():
        return []
    # an entry is bad when the sum of its |coefficients| exceeds tol (0 on
    # exact backends), summed plane by plane: numpy reduces along a short
    # last axis up to 40 times slower
    sizes = np.abs(flat[:, 0])
    for m in range(1, flat.shape[1]):
        sizes += np.abs(flat[:, m])
    bad = sizes > (0 if ring.is_exact else ring.spec.tol)
    return [divmod(k, v) for k in np.flatnonzero(bad).tolist()]


def _rounds_to_roots(M: GMatrix):
    """Whether a complex M is near enough to the exact matrix of roots of
    unity that its tree describes for that matrix's proof to give
    M M* = v I within tol.

    Let delta be the largest distance from a unit of M to its nearest exact
    v-th root. An entry of M* then lies within delta / (1 - delta) <= 2 delta
    of its root's inverse, a term of (M M*)_ij within
    delta (1 + 2 delta) + 2 delta <= 2 (2 delta + delta^2) of its exact value,
    and |(M M*)_ij - v [i = j]| <= 2 v (2 delta + delta^2). The check is
    4 v (2 delta + delta^2) <= tol, which leaves a factor 2 for the float
    product, with delta taken 4 eps above its computed value for the
    rounding of the roots and distances. A unit rounds to the root that the
    exact expansion holds there while tol <= sin(pi / v), the distance from a
    root to the bisector with its neighbour, as a complex matrix keeps a tree
    whose expansion is within tol of its entries (matrix.tree_matches)."""
    v, tol = M.order, M.ring.spec.tol
    z = np.array([u.payload for u in M.units], dtype=np.complex128)
    roots = np.exp(2j * np.pi * np.rint(np.angle(z) * v / (2 * np.pi)) / v)
    delta = float(np.abs(z - roots).max()) + 4 * np.finfo(float).eps
    return tol <= math.sin(math.pi / v) and 4 * v * (2 * delta + delta * delta) <= tol


def verify_gbh(M: GMatrix) -> GbhReport:
    """Check M M* = v I and char R does not divide v; M* M = v I follows.

    failures are the positions of M M* that differ from v I, in row-major
    order (within tol on the complex backend). On an exact backend a unit
    that is no root of unity has order None; on the complex backend, a unit
    none of whose first 2 * v * unit_order_hint() powers is within tol of 1.

    The report's method names one of three routes. M's tree, which expands
    to M (see ght.matrix), may decide it, each node by its kind
    (FactorTree.gbh_proof): a DFT up to permutations by its generator, with
    w = v and no product (method "generator", see DftNode.gbh_proof); else
    a tree by its nodes, each distinct leaf object passing by its product,
    checked once per call (method "tree"): walsh(t) has t leaves and one of
    them, cbt(t) two. No verdict outlives the call, so each call runs each
    distinct leaf's product, whose right operand, the leaf's star as a lane
    batch, the star keeps from the first call on. A leaf passes only when
    it is smaller than M, as a leaf of M's order costs M's own product.
    On the complex backend, whose tolerance is defined on M M* itself, no
    leaf passes: a tree decides M only where its proof reaches DFT nodes
    alone, and then only through the rounding bound
    4 v (2 delta + delta^2) <= tol, delta the largest distance from a unit
    of M to its nearest exact v-th root (_rounds_to_roots). No tree, a
    leaf of M's order, a complex matrix past that bound, and a failing
    leaf, whose failure positions the report lists, take the product M M*
    (method "numeric-lane").
    """
    v = M.order
    if v < 2:
        raise MatrixError("GBH matrices have order >= 2")
    ring = M.ring
    ch = ring.characteristic()
    char_check = ch == 0 or v % ch != 0
    passed = {}  # leaf matrix -> whether its product passes

    def leaf_passes(L):
        if L not in passed:
            passed[L] = ring.is_exact and L.order < v and not _product_failures(L)
        return passed[L]

    proof = M.tree and M.tree.gbh_proof(leaf_passes)
    if proof and not ring.is_exact and not _rounds_to_roots(M):
        proof = None
    if proof == "generator":
        orders = [v]  # the powers of omega, whose orders have lcm v
    elif ring.is_exact:
        orders = [ring._order(u.payload) for u in M.units]
    else:
        z = np.array([u.payload for u in M.units], dtype=np.complex128)
        orders = _complex_orders(z, 2 * v * ring.unit_order_hint(), ring.spec.tol)
    failures = [] if proof else _product_failures(M)
    w = None if None in orders else math.lcm(*orders)
    return GbhReport(
        is_gbh=not failures and char_check,
        v=v,
        w=w,
        char_check=char_check,
        method=proof or "numeric-lane",
        failures=failures,
    )


def row_sums(M: GMatrix):
    """Row sums of M and column sums of the entrywise-inverse matrix: the
    transforms ght(M, 1) and ght(star(M), 1) of the all-ones signal, as
    lists. On the complex backend the sums are those of the transform, equal
    to the entry-by-entry sums within tol but not bit for bit.

    For a normalised GBH all sums except the first are zero.
    """
    ones = transform.Signal.from_ints(M.ring, [1] * M.order)
    return list(transform.ght(M, ones).elements), list(transform.ght(star(M), ones).elements)


def dft_matrix(v, ring: RingContext) -> GMatrix:
    """[omega^(j*k)] for the canonical order-v root omega of the ring: the
    unit table of the v powers of omega, indexed by j*k mod v, whose tree is
    its generator DftNode(ring, v)."""
    return DftNode(ring, v).expand()


def _power_table(ring, powers):
    """The table [powers[j*k mod v]], v = len(powers), without a tree."""
    v = len(powers)
    j = np.arange(v, dtype=np.min_scalar_type(v * v))  # j*k never wraps
    return GMatrix._table(ring, powers, np.outer(j, j) % v)


@dataclass(frozen=True)
class DftNode(FactorTree):
    """The DFT of order v over ring as its generator, which files write as
    {"kind": "dft", "order": v}. Its one power table, built on first use,
    has no tree; expand() gives it this node as its tree, the matrix that
    dft_matrix(v, ring) returns, held by a weak reference, so that a
    dropped DFT is no reference cycle and is freed at once. A ring without
    a root of order v has no table (RingError). It is one factor of every
    tensor chain, which expands and proves it as one; its walk, leaves()
    and cost() are those of its Good-Thomas tree, which only they build,
    and which is its table below transform.WALK_MIN. Its star is
    itself with the rows negated: F* = [omega^(-jk)] is F with row j moved
    to row -j mod v, so that starring builds no table. On an exact backend
    it proves its table GBH, permuted or not, by the node alone."""

    ring: RingContext
    v: int
    kind = "dft"

    @property
    def order(self):
        return self.v

    @cached_property
    def table(self):
        T = _power_table(self.ring, self.ring.root_powers(self.v))
        T._validate_units()
        return T

    def expand(self):
        """The table with this node as its tree, one matrix while it lives."""
        ref = self.__dict__.get("_expansion")
        F = ref and ref()
        if F is None:
            T = self.table
            F = GMatrix._table(self.ring, T.units, T.idx, self)
            object.__setattr__(self, "_expansion", weakref.ref(F))
        return F

    def __reduce__(self):
        """The node of its ring and order, without the table or the weak
        reference to its expansion, which copy and pickle cannot carry."""
        return DftNode, (self.ring, self.v)

    def star(self):
        return PermutedNode(self, *self._negated_rows)

    @cached_property
    def _negated_rows(self):
        """(j -> -j mod v, identity), which hold no reference to the node."""
        v = self.v
        return Permutation(tuple(-j % v for j in range(v))), Permutation.identity(v)

    def gbh_proof(self, leaf_passes):
        """A node exists only where omega = root_of_unity(v) has order
        exactly v, so for i != j row i times row j starred is
        sum_k omega^((i-j)k) = (omega^((i-j)v) - 1) / (omega^(i-j) - 1) = 0,
        and the diagonal sums to v; its units are the v distinct powers of
        omega, whose orders have lcm v. On C this holds for the exact
        roots, which verify_gbh holds the table to (_rounds_to_roots)."""
        return "generator"

    def to_json(self, write_leaf):
        return {"kind": self.kind, "order": self.v}

    @classmethod
    def from_json(cls, data, read):
        return cls(read.ring, read.order(data))

    def walk(self, X, den, big):
        return self.good_thomas.walk(X, den, big)

    def leaves(self):
        return self.good_thomas.leaves()

    def cost(self):
        return self.good_thomas.cost()

    @cached_property
    def good_thomas(self) -> FactorTree:
        """The tree of the DFT down to prime-power DftNodes (Good, 1958;
        Burrus, 1977), each with its table as its one leaf. A node whose
        v * d lane values per column fall below transform.WALK_MIN, read
        when the tree is built, is its table as well: the rule of
        transform._route, by which one product of a table beats a walk
        there, so that dft(60) over Q(zeta_60) walks dft(4) and the table
        of dft(15), and RJT_3 in a family tree is one leaf of order 6.

        For v = q r with q the part of v in its least prime, F = P (F_q (x) F_r) Q,
        where F_q and F_r are the DftNodes of orders q and r, on the canonical
        roots omega^(r s) and omega^(q t). Row j is row (j mod q, j mod r) of
        the tensor product, and column (k1, k2) is column r s k1 + q t k2 mod v:
        j k is congruent to r s j k1 modulo q and to q t j k2 modulo r, so by
        the Chinese remainder theorem omega^(j k) is the product of the two
        factor entries."""
        ring, v = self.ring, self.v
        primes = _prime_factors(v)
        if len(primes) < 2 or v * ring._lane_dim < transform.WALK_MIN:
            return Leaf(self.table)
        q = math.gcd(v, primes[0] ** v.bit_length())
        r = v // q
        # the factors' own powers, so that the leaves are dft_matrix(q) and
        # dft_matrix(r) exactly: on C, powers[r] = exp(-2 pi i r / v) may differ
        # from exp(-2 pi i / q) in its last bits
        Fq, Fr = DftNode(ring, q), DftNode(ring, r)
        # the canonical roots of C and Q(zeta_w) are sent to exp(-2 pi i / v), so
        # omega^r is omega_q and omega^q is omega_r; elsewhere s and t are found
        # by exact comparison, which on C would depend on its tol
        s = t = 1
        if ring.is_exact:
            powers = self.table.units
            s = next(s for s in range(q) if powers[r * s] == Fq.table.units[1])
            t = next(t for t in range(r) if powers[q * t] == Fr.table.units[1])
        j = np.arange(v)
        rowp = np.empty(v, dtype=np.intp)
        rowp[(j % q) * r + j % r] = j
        k1, k2 = np.divmod(j, r)
        colp = (r * s * k1 + q * t * k2) % v
        perms = (Permutation(tuple(p.tolist())) for p in (rowp, colp))
        return PermutedNode(TensorNode(Fq, Fr), *perms)


def b3(ring: RingContext) -> GMatrix:
    """The normalised GBH(3, 3) built on a primitive cube root of unity: the
    table of dft_matrix(3), without a tree."""
    return DftNode(ring, 3).table
