"""Constructors for the named matrices, the tensor family with its
classification, and quadriphase perfect sequences.

The k-matrices are transcribed literally from their displays so that the
structural identities (K6 = dagger of B3 with K2, the DFT jacketization
producing K2/K3) act as genuine cross-checks instead of tautologies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ring as ringmod
from .gbh import dft_matrix, verify_gbh
from .jacket import is_jacket_form, jacketize_dft, rjt_permutation
from .butterfly import DoubleNode
from .matrix import ORDER_LIMIT, GMatrix, Leaf, MatrixError, Permutation, TensorNode, equal, permute
from .ring import RingContext, RingElement, RingError

@dataclass(frozen=True)
class FamilyLabel:
    l: int
    eps: int
    delta: int
    n: int | None
    tag: str


@dataclass(frozen=True)
class QuadriphaseSequence:
    """Exponent sequence s_j in {0,1,2,3}; the term at j is i^s_j."""

    phases: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (0, 1, 2, 3) for p in self.phases):
            raise ValueError("phases must lie in 0..3")

    @property
    def length(self):
        return len(self.phases)


def _coerce_unit(ring, r):
    if isinstance(r, int):
        r = ring.from_int(r)
    if not isinstance(r, RingElement) or r.ring is not ring:
        raise RingError("parameter must be an element of the given ring")
    r.inverse()  # raises if not a unit
    return r


def _require_not_pm1(ring, r):
    if r == ring.one() or r == ring.from_int(-1):
        raise RingError("parameter r must differ from +1 and -1")


def walsh(t: int, ring: RingContext | None = None) -> GMatrix:
    """Sylvester matrix of order 2^t, the t-fold tensor power of [[1,1],[1,-1]]:
    the expansion of the left-deep chain of tensor nodes over that one leaf,
    as files write it. One factor is the leaf's matrix."""
    if t < 1:
        raise MatrixError("walsh needs t >= 1")
    ring = ring if ring is not None else ringmod.rationals()
    return functools.reduce(TensorNode, [Leaf(GMatrix.from_rows(ring, [[1, 1], [1, -1]]))] * t).expand()


def cbt(t: int, ring: RingContext | None = None) -> GMatrix:
    """Complex BIFORE matrix C_t of order 2^t by the block recursion of
    Ahmed, Rao and Schultz (1971), C_2 = D(S_1, C_1) and
    C_m = D(C_{m-1}, C_1 (x) S_{m-2}), with D(A, B) = [[A, A], [B, -B]] the
    doubling node, C_1 = [[1, -i], [1, i]] for i = root_of_unity(4) and S_j
    the Sylvester matrix walsh(j). The matrix is the expansion of that tree,
    whose leaves are the one C_1 and the one S_1, and whose index is written
    when it is first read."""
    if t < 1:
        raise MatrixError("cbt needs t >= 1")
    ring = ring if ring is not None else ringmod.cyclotomic(4)
    i, one = ring.root_of_unity(4), ring.one()
    c1 = GMatrix.from_rows(ring, [[one, -i], [one, i]])
    if t == 1:
        return c1
    c1, s1 = Leaf(c1), Leaf(GMatrix.from_rows(ring, [[1, 1], [1, -1]]))
    tree, s = DoubleNode(s1, c1), None  # s: the tree of S_{m-2}, none for S_0
    for _ in range(t - 2):
        s = s1 if s is None else TensorNode(s, s1)
        tree = DoubleNode(tree, TensorNode(c1, s))
    return tree.expand()


def k1(ring: RingContext | None = None) -> GMatrix:
    ring = ring if ring is not None else ringmod.rationals()
    return GMatrix.from_rows(ring, [[1, 1], [1, -1]])


def k2(r, ring: RingContext | None = None) -> GMatrix:
    """Centre-weighted 4x4 jacket matrix; r must be a unit other than +1/-1."""
    ring = ring if ring is not None else ringmod.rationals()
    r = _coerce_unit(ring, r)
    _require_not_pm1(ring, r)
    one = ring.one()
    m1 = ring.from_int(-1)
    return GMatrix.from_rows(
        ring,
        [
            [one, one, one, one],
            [one, -r, r, m1],
            [one, r, -r, m1],
            [one, m1, m1, one],
        ],
    )


def k3(ring: RingContext) -> GMatrix:
    """The 6x6 primary jacket matrix on the ring's primitive 6th root of
    unity."""
    one, a, a2, _, a4, a5 = ring.root_powers(6)
    m1 = ring.from_int(-1)
    return GMatrix.from_rows(
        ring,
        [
            [one, one, one, one, one, one],
            [one, a, a2, a5, a4, m1],
            [one, a2, a4, a4, a2, one],
            [one, a5, a4, a, a2, m1],
            [one, a4, a2, a2, a4, one],
            [one, m1, one, m1, one, m1],
        ],
    )


def k4(ring: RingContext | None = None) -> GMatrix:
    """The 8x8 width-1 jacket matrix over the 4th roots of unity."""
    ring = ring if ring is not None else ringmod.cyclotomic(4)
    i = ring.root_of_unity(4)
    o = ring.one()
    m = ring.from_int(-1)
    ni = -i
    return GMatrix.from_rows(
        ring,
        [
            [o, o, o, o, o, o, o, o],
            [o, i, ni, o, m, i, ni, m],
            [o, ni, m, i, i, m, ni, o],
            [o, o, i, i, ni, ni, m, m],
            [o, m, i, ni, i, ni, o, m],
            [o, i, m, ni, ni, m, i, o],
            [o, ni, ni, m, o, i, i, m],
            [o, m, o, m, m, o, m, o],
        ],
    )


def k6(ring: RingContext, r) -> GMatrix:
    """The 12x12 width-1 jacket matrix on a cube root of unity, transcribed
    from its explicit display (the dagger identity is tested, not assumed)."""
    r = _coerce_unit(ring, r)
    _require_not_pm1(ring, r)
    o, b, b2 = ring.root_powers(3)
    m = ring.from_int(-1)
    rb, rb2 = r * b, r * b2
    return GMatrix.from_rows(
        ring,
        [
            [o, o, o, o, o, o, o, o, o, o, o, o],
            [o, -r, r, o, -r, r, m, o, -r, r, m, m],
            [o, r, -r, o, r, -r, m, o, r, -r, m, m],
            [o, o, o, b, b, b, b, b2, b2, b2, b2, o],
            [o, -r, r, b, -rb, rb, -b, b2, -rb2, rb2, -b2, m],
            [o, r, -r, b, rb, -rb, -b, b2, rb2, -rb2, -b2, m],
            [o, m, m, b, -b, -b, b, b2, -b2, -b2, b2, o],
            [o, o, o, b2, b2, b2, b2, b, b, b, b, o],
            [o, -r, r, b2, -rb2, rb2, -b2, b, -rb, rb, -b, m],
            [o, r, -r, b2, rb2, -rb2, -b2, b, rb, -rb, -b, m],
            [o, m, m, b2, -b2, -b2, b2, b, -b, -b, b, o],
            [o, m, m, o, m, m, o, o, m, m, o, o],
        ],
    )


def complex_rjt(n: int, omega: RingElement) -> GMatrix:
    """The order-2n reverse-jacket matrix on a given primitive 2n-th root:
    [omega^(jk)] with rows and columns permuted by the involution
    jacket.rjt_permutation(n), as in jacketize_dft. With omega = omega0^m,
    omega0 the ring's canonical root and m prime to 2n, row j of
    [omega^(jk)] is row m j mod 2n of dft_matrix(2n), so this is that DFT
    permuted, whose tree PermutedNode(DftNode(ring, 2n), q, p) verify_gbh
    decides by its generator; an omega that is no such power, of an order
    other than 2n, is refused (RingError)."""
    w, p = 2 * n, rjt_permutation(n)
    m = next((m for m, u in enumerate(omega.ring.root_powers(w)) if u == omega and math.gcd(m, w) == 1), None)
    if m is None:
        raise RingError(f"omega must have multiplicative order exactly {w}")
    return permute(dft_matrix(w, omega.ring), Permutation(tuple(m * j % w for j in p.image)).inverse(), p)


def _classify(l, eps, delta, n, r, ring) -> str:
    kind = ring.spec.kind
    real = kind == "rationals"
    complexish = kind in ("cyclotomic-rationals", "complex-float")
    r_is_i = False
    if eps:
        r_is_i = r * r == ring.from_int(-1)
    if l >= 1 and eps == 0 and delta == 0:
        return "WHT"
    if l == 0 and eps == 0 and delta == 1 and complexish:
        return "DFT-equivalent"
    if eps == 1 and delta == 0 and real:
        return "CWHT"
    if complexish and (
        (eps == 0 and delta == 1 and n == 2) or (eps == 1 and delta == 0 and r_is_i)
    ):
        return "complex-RJT"
    if eps == 0 and delta == 1:
        return "extended-complex-RJT"
    return "unnamed"


def family(l, eps, delta, n, r, ring: RingContext):
    """(tensor^l K1) x K2(r)^eps x RJT_n^delta, the expansion of the
    left-deep chain of tensor nodes over its factors' trees, with its
    classification tag."""
    if eps not in (0, 1) or delta not in (0, 1) or l < 0:
        raise MatrixError("need l >= 0 and eps, delta in {0, 1}")
    if l == 0 and eps == 0 and delta == 0:
        raise MatrixError("empty product: at least one factor is required")
    factors = [k1(ring) for _ in range(l)]
    if eps:
        factors.append(k2(r, ring))
    if delta:
        if n is None or n < 1:
            raise MatrixError("delta = 1 needs an order parameter n >= 1")
        factors.append(jacketize_dft(n, ring)[0])
    M = functools.reduce(TensorNode, [f.as_tree() for f in factors]).expand()
    tag = _classify(l, eps, delta, n, r if eps else None, ring)
    return M, FamilyLabel(l=l, eps=eps, delta=delta, n=n if delta else None, tag=tag)


# --- quadriphase perfect sequences ---


def autocorrelation(s: QuadriphaseSequence, tau: int, ring: RingContext | None = None):
    """Periodic autocorrelation sum_j i^(s_j - s_{j+tau}) as a ring element."""
    ring = ring if ring is not None else ringmod.cyclotomic(4)
    counts = _shift_counts(s.phases, tau)
    powers = ring.root_powers(4)
    acc = ring.zero()
    for e in range(4):
        if counts[e]:
            acc = acc + powers[e] * counts[e]
    return acc


def _shift_counts(phases, tau):
    L = len(phases)
    counts = [0, 0, 0, 0]
    for j in range(L):
        counts[(phases[j] - phases[(j + tau) % L]) % 4] += 1
    return counts


def _perfect_rows(phases):
    """The rows of an int8 array of phases whose nonzero cyclic shifts all
    have vanishing autocorrelation over Q(zeta_4). A shift's sum is
    (c0 - c2) + (c1 - c3) i for the counts c of its phase differences, so it
    vanishes iff both parts of the sum do; the rows are narrowed shift by
    shift."""
    re, im = np.array([1, 0, -1, 0], dtype=np.int8), np.array([0, 1, 0, -1], dtype=np.int8)
    for tau in range(1, phases.shape[1]):
        d = (phases - np.roll(phases, -tau, axis=1)) % 4
        phases = phases[(re[d].sum(axis=1) == 0) & (im[d].sum(axis=1) == 0)]
    return phases


def is_perfect(s: QuadriphaseSequence, ring: RingContext | None = None) -> bool:
    """All nonzero cyclic shifts have vanishing autocorrelation over ring,
    Q(zeta_4) by default."""
    ring = ring if ring is not None else ringmod.cyclotomic(4)
    zero = ring.zero()
    return all(autocorrelation(s, tau, ring) == zero for tau in range(1, s.length))


def back_circulant(s: QuadriphaseSequence, ring: RingContext | None = None) -> GMatrix:
    """Matrix whose (j, k) entry is i^(s_(j+k mod L)); symmetric by design."""
    ring = ring if ring is not None else ringmod.cyclotomic(4)
    powers = ring.root_powers(4)
    L = s.length
    rows = [
        [powers[s.phases[(j + k) % L]] for k in range(L)] for j in range(L)
    ]
    return GMatrix.from_rows(ring, rows)


def search_perfect_quadriphase(L: int):
    """All canonical (s_0 = 0) perfect quadriphase sequences of length L
    over Q(zeta_4), by exhausting the 4^(L-1) candidates; bounded to
    L <= 10."""
    if L < 1 or L > 10:
        raise MatrixError("exhaustive search is bounded to 1 <= L <= 10")
    # the candidates in itertools.product order, one row each: candidate n
    # holds the base-4 digits of n, most significant first, after s_0 = 0;
    # built a column at a time, which keeps the int32 temporaries one
    # column wide
    n = np.arange(4 ** (L - 1), dtype=np.int32)
    phases = np.empty((len(n), L), dtype=np.int8)
    for j in range(L):
        phases[:, j] = (n >> 2 * (L - 1 - j)) & 3
    return [QuadriphaseSequence(tuple(row)) for row in _perfect_rows(phases).tolist()]


def enumerate_jackets_2x2(ring: RingContext, group_order: int):
    """Exhaust the normalised 2x2 matrices [[1, 1], [1, d]] with d in the
    order-w root group, keeping the GBH ones in jacket form; the result is
    the single Sylvester matrix whatever the group."""
    one = ring.one()
    found = []
    for d in ring.root_powers(group_order):
        M = GMatrix.from_rows(ring, [[one, one], [one, d]])
        if is_jacket_form(M) and verify_gbh(M).is_gbh:
            if not any(equal(M, F) for F in found):
                found.append(M)
    return found


CATALOG_TOKENS = "walsh:t cbt:t dft:v k1 k2:r k3 k4 k6:r family:l,e,d,n,r"


def _family_args(arg):
    parts = arg.split(",")
    if len(parts) != 5:
        raise MatrixError("family token needs l,eps,delta,n,r")
    return [int(p) for p in parts]


def _token_order(name, arg):
    """The order that a token's argument sets (1 for fixed-order tokens).
    Exponents are clipped to 0..13, since 2^13 already exceeds ORDER_LIMIT,
    so that walsh:10000000 costs nothing; family() rejects what was clipped."""

    def power(base, e):
        return base ** max(0, min(e, ORDER_LIMIT.bit_length()))

    if name in ("walsh", "cbt"):
        return power(2, int(arg))
    if name == "dft":
        return int(arg)
    if name == "family":
        l, eps, delta, n, _ = _family_args(arg)
        return power(2, l) * power(4, eps) * power(2 * n, delta)
    return 1


def from_token(token: str, ring: RingContext | None = None) -> GMatrix:
    """Build a catalog matrix from its CLI token; the ring defaults to the
    smallest natural one for the token. A token that sets an order above
    ORDER_LIMIT is rejected before anything is built."""
    name, _, arg = token.partition(":")
    if _token_order(name, arg) > ORDER_LIMIT:
        raise MatrixError(f"catalog token {token!r} sets an order above the limit {ORDER_LIMIT}")
    if name == "walsh":
        return walsh(int(arg), ring)
    if name == "cbt":
        return cbt(int(arg), ring)
    if name == "dft":
        v = int(arg)
        return dft_matrix(v, ring if ring is not None else ringmod.cyclotomic(v))
    if name == "k1":
        return k1(ring)
    if name == "k2":
        return k2(int(arg), ring)
    if name == "k3":
        return k3(ring if ring is not None else ringmod.cyclotomic(6))
    if name == "k4":
        return k4(ring)
    if name == "k6":
        return k6(ring if ring is not None else ringmod.cyclotomic(3), int(arg))
    if name == "family":
        l, eps, delta, n, r = _family_args(arg)
        if ring is None:
            w = 1
            if l or eps:
                w = 2
            if delta:
                w = np.lcm(w, 2 * n)
            ring = ringmod.rationals() if w <= 2 else ringmod.cyclotomic(int(w))
        return family(l, eps, delta, n, r, ring)[0]
    raise MatrixError(f"unknown catalog token {token!r}")
