"""The transform pair and fast evaluation through recorded factor trees.

Forward: xhat = B x. Inverse: x = v^(-1) B* xhat, which needs the order v to
be invertible in the ring (char R must not divide v). All three transforms
run one kernel, a matrix times a batch of columns, axis-wise over a factor
tree: fast_apply over the tree it is given; ght and ight over the tree of B
and of star(B), which star keeps as (A (x) B)* = A* (x) B*, where v * d
reaches WALK_MIN, and over one table below it (_route, the one rule). A
DFT node inside a tree keeps the same rule: below WALK_MIN its Good-Thomas
tree is its table (gbh.DftNode.good_thomas), so RJT_3 in a family tree is
one factor of order 6. Tensor factors of orders v_1..v_k cost
v*(v_1+...+v_k) multiplications instead of v^2, as tree_cost counts.

A walk takes the shuffle form of the Kronecker product (Davio, "Kronecker
products and shuffle algebra", 1981; Van Loan, "The ubiquitous Kronecker
product", 2000). A chain of tensor nodes is one flat tuple of factors,
leaves, permuted subtrees and DFT nodes, kept on its node
(FactorTree.factors), and a transform walks such a tuple right to left
(matrix._walk), so that the leaves meet the batch in the order
reversed(tree.leaves()); before each factor one transpose brings that
factor's axis to the front of the rows, and the factor walks itself
(FactorTree.walk), as a node kind is one class: a permuted subtree is its
child's walk between two gathers of rows, a DFT node the walk of its
Good-Thomas tree, and a double node its halves' walks beside one butterfly
of sums and differences, the leaf F_2 walking the batch as two rows.

That kernel is matrix._lane_apply, the numeric lane's one kernel, on every
backend. A signal is its lane form, written once when it is built from
elements, as their lane table (matrix._UnitLane): the backend's d
coefficient planes over one carried denominator (integers on the exact
backends, one complex128 plane on C), carried as d columns per vector.
Each leaf is one call of _lane_apply: one BLAS product of its unit planes
and one reduction by the backend; the denominators of the leaf units (and
ight's 1/v) join the carried one. Each leaf picks its own dtype from a
bound on the batch it meets: the walk measures the signal once, and each
leaf returns the bound of its output to the next, so a batch whose
coefficients grow past float64's exact range goes on in Python integers. A
leaf matrix keeps the lane form of its units and its starred matrix (see
ght.matrix), and ight's 1/v leaf is built once per ring and order, so a
transform applied again writes no planes at all.

A transform reads its input's planes as they are and returns its output
in lane form, in lowest terms on the exact backends (planes and
denominator divided by their gcd). No transform writes elements as planes:
a signal transformed k times was written once, when it was built, and a
transform's output decodes its elements, once per distinct coefficient
vector, the first time they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix import (
    FactorTree,
    GMatrix,
    Leaf,
    MatrixError,
    _decode_planes,
    _UnitLane,
    _lane_max,
    _walk,
    star,
)
from .ring import RingContext, RingElement


class Signal:
    """Length-v sequence of ring elements; immutable.

    A signal is its lane form: a read-only (v, d) array of coefficient
    planes over one carried denominator, which the transforms read and
    return. A signal built from elements writes it once, here, and keeps
    the elements it was given; a transform's output decodes its elements
    the first time they are read and keeps them; ring and length need no
    decode. Equality is element-wise (within the tolerance on the complex
    backend), and exact signals hash by their elements.
    """

    __slots__ = ("ring", "length", "_elements", "_planes", "_den")

    def __init__(self, ring: RingContext, elements):
        elements = tuple(elements)
        for k, e in enumerate(elements):
            if not isinstance(e, RingElement) or e.ring is not ring:
                raise MatrixError(f"signal entry {k} is not an element of {ring!r}")
        lane = _UnitLane(ring, elements)
        self._fill(ring, len(elements), elements, lane.table.T.reshape(len(elements), ring._lane_dim), lane.den)

    @classmethod
    def _from_lane(cls, ring, planes, den):
        """The signal of planes / den, a (v, d) array that becomes read-only."""
        planes.flags.writeable = False
        x = object.__new__(cls)
        x._fill(ring, len(planes), None, planes, den)
        return x

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Signal is immutable")

    def __reduce__(self):
        """copy, deepcopy and pickle rebuild the lane form from a copy of
        its planes, over the live ring; the copy decodes its elements when
        they are read."""
        return Signal._from_lane, (self.ring, self._planes.copy(), self._den)

    @classmethod
    def from_ints(cls, ring, values):
        return cls(ring, tuple(ring.from_int(n) for n in values))

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            units, codes = _decode_planes(self.ring, self._planes, self._den)
            object.__setattr__(self, "_elements", tuple(units[k] for k in codes.tolist()))
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.length == other.length
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"Signal(ring={self.ring!r}, elements={self.elements!r})"


@dataclass(frozen=True)
class OpCount:
    mul: int = 0
    add: int = 0


def _lowest_terms(ring, y, den):
    """(y, den) with the planes and den divided by their gcd on an exact
    backend, so that the lane form of a signal does not depend on the route
    that made it and a chain of transforms does not grow its denominator."""
    if not ring.is_exact or den == 1:
        return y, den
    ints = y.astype(np.int64) if y.dtype.kind == "f" else y
    g = math.gcd(den, int(np.gcd.reduce(ints.ravel())))
    return (y, den) if g == 1 else (ints // g, den // g)


def _apply(factors, x: Signal) -> Signal:
    """The product of the factors (FactorTree.factors) times x as a batch
    of one vector, x's planes over its denominator, as a lane-form signal.
    Each factor's leaves must be over the signal's ring, the one object of
    its spec."""
    if math.prod(f.order for f in factors) != x.length:
        raise MatrixError("signal length does not match the matrix order")
    ring = x.ring
    if any(L.ring is not ring for f in factors for L in f.leaves()):
        raise MatrixError("ring mismatch")
    X = x._planes
    y, den, _ = _walk(factors, X, x._den, _lane_max(X) if ring.is_exact else None)
    return Signal._from_lane(ring, *_lowest_terms(ring, y, den))


# the lane values per column, v * d for d planes, from which a walk beats a table
WALK_MIN = 256


def _route(B: GMatrix) -> FactorTree:
    """B's tree where it has one and v * d reaches WALK_MIN, else Leaf(B):
    the one rule, which a DFT node's Good-Thomas tree also reads."""
    return B.tree if B.tree is not None and B.order * B.ring._lane_dim >= WALK_MIN else Leaf(B)


def ght(B: GMatrix, x: Signal) -> Signal:
    """Forward transform xhat = B x, in exact ring arithmetic, over _route(B)."""
    return _apply(_route(B).factors, x)


@lru_cache(maxsize=64)
def _inverse_leaf(ring, v):
    """Leaf([[v^(-1)]]), one per ring and order, so that its matrix keeps its
    lane form between calls of ight."""
    return Leaf(GMatrix.from_rows(ring, [[ring.int_inverse(v)]]))


def ight(B: GMatrix, xhat: Signal) -> Signal:
    """Inverse transform x = v^(-1) B* xhat; requires v invertible in R.

    Walks _route(star(B)), and star keeps B* with its starred tree, so like
    fast_apply it costs v * (v_1 + ... + v_k) multiplications over tensor
    factors of orders v_1..v_k. v^(-1) enters as a 1 x 1 leaf in front of
    those factors, so over Q it joins the carried denominator; that leaf is
    built once per ring and order, so a repeated ight stars no tree and
    writes no plane of a matrix again."""
    return _apply((_inverse_leaf(B.ring, B.order),) + _route(star(B)).factors, xhat)


def tree_cost(tree: FactorTree) -> OpCount:
    """Ring multiplications and additions that fast_apply spends on one
    signal, summed node by node (FactorTree.cost): a leaf of order a costs
    a^2 and a(a-1), a chain applies each factor of order a v / a times, so
    leaves of orders v_1..v_k cost v * (v_1 + ... + v_k) and
    v * ((v_1 - 1) + ... + (v_k - 1)), a double node adds v additions
    to its halves' costs, and a DFT node costs its Good-Thomas tree, which
    below WALK_MIN is its table: dft(24) over Q(zeta_24) costs 24^2."""
    return OpCount(*tree.cost())


def fast_apply(tree: FactorTree, x: Signal):
    """Apply the matrix described by a factor tree, node by node.

    Returns (Signal, OpCount): the output equals the naive product with the
    expanded matrix, and the count is tree_cost(tree).
    """
    return _apply(tree.factors, x), tree_cost(tree)
