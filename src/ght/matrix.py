"""Dense square matrices over a ring context, stored as unit tables.

Entries are ring units (every exact backend here is a field, so unit ==
nonzero). The matrices of interest are Butson-type: their entries come from
a small set of units. A GMatrix therefore stores the tuple `units` of its
distinct entries, deduplicated by exact payload, and a read-only index array
`idx` with entry(i, j) == units[idx[i, j]]. Each operation works on that
table: star inverts the units and transposes idx, permute indexes idx,
tensor forms each unit product once and fills idx with numpy, and equal
compares only the distinct unit pairs that occur. mat_mul, verification and
the transforms take the numeric lane: each backend writes a unit table as
integer coefficient planes over a common denominator (one complex plane on
the complex backend), the planes meet those of the other factor (or of a
signal batch) in one BLAS product per block of rows, and the backend
reduces the result: in floats while that is exact, in Python integers past
that.

A matrix may carry a FactorTree recording how it was assembled from tensor
products and index permutations; the transform module exploits the tree for
fast application, and gbh.verify_gbh decides a trusted tree from its leaves.
A tree is trusted when the library built it (tensor and permute of matrices
whose trees are trusted, gbh.dft_matrix, and the checked loads of
ght.fileio); a tree passed to GMatrix(..., tree=) or from_rows(..., tree=)
is unchecked, as nothing compares it with the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring import RingContext, RingElement


class MatrixError(ValueError):
    """Shape, ring, or entry violations."""


# The largest order a matrix file or a catalog token may ask for: that of
# walsh(12). A tree-only file of a few KB, or a token such as walsh:20, could
# otherwise ask for 2^40 index bytes. The constructors themselves are unbounded.
ORDER_LIMIT = 4096


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..v-1; image[i] is where index i is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise MatrixError("image array is not a bijection")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @classmethod
    def from_cycle(cls, n, cycle):
        """Cycle in 0-based indices: each entry maps to the next one."""
        img = list(range(n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            img[a] = b
        return cls(tuple(img))

    @property
    def order(self):
        return len(self.image)

    def __call__(self, i):
        return self.image[i]

    def inverse(self):
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.image))


# --- factor trees ---


class FactorTree:
    """Construction record: leaf matrices combined by tensor products and
    row/column permutations."""

    @property
    def order(self):
        raise NotImplementedError

    def expand(self) -> "GMatrix":
        raise NotImplementedError

    def star(self) -> "FactorTree":
        """A tree of the starred matrix: (A (x) B)* = A* (x) B*, and starring
        a permuted matrix swaps its row and column permutations."""
        raise NotImplementedError

    def leaves(self) -> list["GMatrix"]:
        """The leaf matrices, left to right, one per leaf node."""
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(FactorTree):
    matrix: "GMatrix"

    @property
    def order(self):
        return self.matrix.order

    def expand(self):
        return self.matrix

    def star(self):
        return Leaf(star(self.matrix))

    def leaves(self):
        return [self.matrix]


@dataclass(frozen=True)
class TensorNode(FactorTree):
    left: FactorTree
    right: FactorTree

    @property
    def order(self):
        return self.left.order * self.right.order

    def expand(self):
        return tensor(self.left.expand(), self.right.expand())

    def star(self):
        return TensorNode(self.left.star(), self.right.star())

    def leaves(self):
        return self.left.leaves() + self.right.leaves()


@dataclass(frozen=True)
class PermutedNode(FactorTree):
    child: FactorTree
    rowp: Permutation
    colp: Permutation

    @property
    def order(self):
        return self.child.order

    def expand(self):
        return permute(self.child.expand(), self.rowp, self.colp)

    def star(self):
        return PermutedNode(self.child.star(), self.colp, self.rowp)

    def leaves(self):
        return self.child.leaves()


@dataclass(frozen=True)
class DftNode(FactorTree):
    """The tree of gbh.dft_matrix(order, ring): `tree` is its Good-Thomas
    factorisation, a Leaf for a prime-power order, and `matrix` the indexed
    table it expands to. Files write the node as its generator."""

    matrix: "GMatrix"
    tree: FactorTree

    @property
    def order(self):
        return self.matrix.order

    def expand(self):
        return self.matrix

    def star(self):
        return self.tree.star()

    def leaves(self):
        return self.tree.leaves()


def _unit_table(entries):
    """(units, codes): the distinct entries by exact payload and ring object,
    in order of first occurrence, and each entry's position in `units`."""
    first = {}
    try:
        codes = [first.setdefault((id(e.ring), e.payload), (len(first), e))[0] for e in entries]
    except AttributeError:
        raise MatrixError("matrix entries must be ring elements") from None
    return [e for _, e in first.values()], np.array(codes, dtype=np.intp)


class GMatrix:
    """Immutable square matrix of ring units: entry(i, j) == units[idx[i, j]].

    `array` is a square object array of RingElements, or an integer array
    whose values are embedded through the ring (a +1/-1 Sylvester array over
    the rationals, say). Each distinct unit is validated once. A tree given
    here is unchecked: tree_trusted is false (see the module docstring).
    """

    __slots__ = ("ring", "order", "tree", "units", "idx", "tree_trusted")

    def __init__(self, ring: RingContext, array, tree=None):
        a = np.asarray(array)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError("matrix must be square")
        if a.dtype == object:
            units, codes = _unit_table(a.ravel())
        elif a.dtype.kind in "iu":
            values, codes = np.unique(a, return_inverse=True)
            units = [ring.from_int(int(n)) for n in values]
        else:
            raise MatrixError("entries must be ring elements or integers")
        self._fill(ring, units, codes.reshape(a.shape), tree, tree is None)
        self._validate_units()

    @classmethod
    def _table(cls, ring, units, idx, tree=None, trusted=True):
        """Unchecked matrix from a unit list and an index array; the caller
        vouches for the tree unless trusted is false."""
        M = object.__new__(cls)
        M._fill(ring, units, idx, tree, trusted)
        return M

    def _fill(self, ring, units, idx, tree, trusted):
        idx = idx.astype(np.min_scalar_type(len(units) - 1), copy=False)
        idx.flags.writeable = False
        values = (ring, len(idx), tree, tuple(units), idx, trusted)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GMatrix is immutable")

    def _validate_units(self):
        zero = self.ring.zero()
        for k, u in enumerate(self.units):
            if not isinstance(u, RingElement) or u.ring.spec != self.ring.spec:
                problem = "is not in the matrix ring"
            elif u == zero:
                problem = "is not a unit"
            else:
                continue
            i, j = np.argwhere(self.idx == k)[0]
            raise MatrixError(f"entry ({i},{j}) {problem}")

    @classmethod
    def from_rows(cls, ring, rows, tree=None):
        """Build from nested lists of RingElements (plain ints are embedded);
        a tree given here is unchecked."""
        v = len(rows)
        if any(len(row) != v for row in rows):
            raise MatrixError("matrix must be square")
        flat = (ring.from_int(e) if isinstance(e, int) else e for row in rows for e in row)
        flat = np.fromiter(flat, dtype=object, count=v * v)
        return cls(ring, flat.reshape(v, v), tree=tree)

    def entry(self, i, j) -> RingElement:
        return self.units[self.idx[i, j]]

    def row(self, i):
        units = self.units
        return [units[k] for k in self.idx[i].tolist()]

    def rows(self):
        units = self.units
        return [[units[k] for k in r] for r in self.idx.tolist()]

    def as_tree(self) -> FactorTree:
        return self.tree if self.tree is not None else Leaf(self)

    def is_normalised(self):
        one = self.ring.one()
        border = set(self.idx[0].tolist()) | set(self.idx[:, 0].tolist())
        return all(self.units[k] == one for k in border)

    def __repr__(self):
        return f"GMatrix(order={self.order}, ring={self.ring!r})"


def _check_same_ring(A: GMatrix, B: GMatrix):
    if A.ring.spec != B.ring.spec:
        raise MatrixError("ring mismatch")


def _unit_products(A: GMatrix, B: GMatrix):
    """(products, table): the distinct products of a unit of A and a unit of
    B, and table[a, b] = position of units_A[a] * units_B[b] in products."""
    products, codes = _unit_table([a * b for a in A.units for b in B.units])
    return products, codes.reshape(len(A.units), len(B.units))


def star(M: GMatrix) -> GMatrix:
    """M* : transpose of the entrywise inverses; an involution."""
    inverses = [u.inverse() for u in M.units]
    return GMatrix._table(M.ring, inverses, M.idx.T)


def tensor(A: GMatrix, B: GMatrix) -> GMatrix:
    """Kronecker product; the result records both factors in its tree,
    trusted when theirs are."""
    _check_same_ring(A, B)
    products, table = _unit_products(A, B)
    va, vb = A.order, B.order
    table = table.astype(np.min_scalar_type(len(products) - 1))
    idx = np.empty((va * vb, va * vb), dtype=table.dtype)
    # entry (i*vb + k, j*vb + l) is A[i, j] * B[k, l]
    for k in range(vb):
        for l in range(vb):
            idx[k::vb, l::vb] = table[:, B.idx[k, l]][A.idx]
    tree = TensorNode(A.as_tree(), B.as_tree())
    return GMatrix._table(A.ring, products, idx, tree, A.tree_trusted and B.tree_trusted)


def permute(M: GMatrix, rowp: Permutation, colp: Permutation) -> GMatrix:
    """Entry (i, j) of the result is M[rowp^-1(i), colp^-1(j)]; its tree is
    trusted when M's is."""
    if rowp.order != M.order or colp.order != M.order:
        raise MatrixError("permutation size mismatch")
    rinv = rowp.inverse().image
    cinv = colp.inverse().image
    tree = PermutedNode(M.as_tree(), rowp, colp)
    return GMatrix._table(M.ring, M.units, M.idx[np.ix_(rinv, cinv)], tree, M.tree_trusted)


def normalize(M: GMatrix):
    """Scale rows then columns so the first row and column are all 1s.

    Returns (N, row_scalars, col_scalars) with
    M[i][j] == row_scalars[i] * N[i][j] * col_scalars[j].
    """
    rows = M.rows()
    row_scalars = [r[0] for r in rows]
    row_inv = [r.inverse() for r in row_scalars]
    col_scalars = [row_inv[0] * e for e in rows[0]]
    col_inv = [c.inverse() for c in col_scalars]
    out = [
        [ri * e * cj for e, cj in zip(r, col_inv)] for r, ri in zip(rows, row_inv)
    ]
    N = GMatrix.from_rows(M.ring, out)
    return N, row_scalars, col_scalars


# values of A's stacked planes gathered per BLAS call in _lane_apply, per
# column of the batch: a thin batch (a signal) meets A 256-512 KB at a time,
# as a fresh large temporary costs more than the product it feeds (ght of
# walsh(10) took twice as long with one 4 MB block), while a product with v
# columns (verify) runs as one call
_BLOCK_VALUES = 2**16


@lru_cache(maxsize=64)
def _scatter(ma, mx, dtype):
    """Row (i, j) holds a 1 in column ma[i] + mx[j]: the product of plane
    ma[i] of A and plane mx[j] of X adds to that unreduced plane. The
    columns stop at max(ma) + max(mx), past which every plane is zero."""
    sums = np.add.outer(ma, mx).reshape(-1, 1)
    out = (sums == np.arange(sums.max() + 1)).astype(np.int64).astype(dtype)
    out.flags.writeable = False
    return out


def _lane_apply(A: GMatrix, batch, mx, big_x):
    """(planes, den): A times a batch of n vectors given by the coefficient
    planes mx of each (see RingContext._lane_planes), side by side:
    batch(dtype) is X, a (v, n * len(mx)) array in that dtype whose column
    k * len(mx) + j holds plane mx[j] of vector k, and on an exact backend
    big_x bounds its values in size. The product is a (v, n, d) array of
    reduced coefficients over A's plane denominator den. X is built only
    once the dtype is known, as a large copy costs as much as a small
    product.

    A's unit table is written as coefficient planes, and its nonzero planes,
    stacked as rows, meet X in one BLAS product per block of rows, whose
    blocks A_m X_k add up to the unreduced plane m + k; the backend then
    reduces the planes (modulo Phi_w, modulo p). On an exact backend every
    value is an integer smaller than the bound top = min(#planes of A,
    len(mx)) * v * max|a| * big_x, and every value the reduction meets is
    smaller than RingContext._lane_bound(top, #unreduced planes). The
    product is float32 for one-plane backends while that bound is below
    2^24, float64 while it is below 2^53, and otherwise Python integers in
    object arrays, exact at any size. The complex backend multiplies its complex128 plane as is.
    """
    ring, v, d = A.ring, A.order, A.ring._lane_dim
    pa, den = ring._lane_planes(A.units)
    ma = tuple(m for m, plane in enumerate(pa) if any(plane)) or (0,)
    dtype = np.complex128
    if ring.is_exact:
        big_a = max(abs(c) for m in ma for c in pa[m])
        top = min(len(ma), len(mx)) * v * big_a * max(big_x, 1)
        bound = ring._lane_bound(top, ma[-1] + max(mx) + 1)
        dtype = np.float32 if d == 1 and bound < 2**24 else np.float64 if bound < 2**53 else object
    ua = np.array([pa[m] for m in ma], dtype=dtype)
    X = batch(dtype)
    n = X.shape[1] // len(mx)
    blocks = []
    rows = max(1, _BLOCK_VALUES * X.shape[1] // (len(ma) * v))
    for r in range(0, v, rows):
        idx = A.idx[r : r + rows]
        prod = ua[:, idx].reshape(len(ma) * len(idx), v) @ X
        if d == 1:
            planes = prod.reshape(-1, 1)
        else:
            prod = prod.reshape(len(ma), len(idx), n, len(mx)).transpose(1, 2, 0, 3)
            planes = prod.reshape(len(idx) * n, -1) @ _scatter(ma, tuple(mx), dtype)
        blocks.append(ring._lane_reduce(planes).reshape(len(idx), n, d))
    return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks)), den


def _lane_product(A: GMatrix, B: GMatrix):
    """(planes, den): the reduced coefficients of A B over the common
    denominator den, a (v, v, d) array with entry (i, j) of A B equal to
    planes[i, j] / den (see _lane_apply, with the columns of B as the
    batch)."""
    ring, v = A.ring, A.order
    pb, den_b = ring._lane_planes(B.units)
    mb = [m for m, plane in enumerate(pb) if any(plane)] or [0]
    big_b = max(abs(c) for m in mb for c in pb[m]) if ring.is_exact else None
    # column (j, k) holds plane mb[k] of B's column j
    batch = lambda dtype: np.array([pb[m] for m in mb], dtype=dtype).T[B.idx].reshape(v, -1)
    planes, den = _lane_apply(A, batch, mb, big_b)
    return planes, den * den_b


def _decode_planes(ring, vecs, den):
    """(units, codes): the ring elements of the rows of vecs / den, a (k, d)
    array of reduced coefficients, each distinct row decoded once, and each
    row's position in units. The rows are found by a dict: at signal sizes
    that costs less than a sort, and np.unique(axis=0) rejects the object
    arrays of Python integers."""
    if vecs.dtype.kind == "f":
        vecs = vecs.astype(np.int64)
    if vecs.shape[1] == 1:
        keys = vecs.ravel().tolist()
        decode = lambda c: ring.element(ring._lane_payload((c,), den))
    else:
        keys = list(map(tuple, vecs.tolist()))
        decode = lambda vec: ring.element(ring._lane_payload(vec, den))
    first = {}
    codes = [first.setdefault(key, len(first)) for key in keys]
    return [decode(key) for key in first], np.array(codes, dtype=np.intp)


def mat_mul(A: GMatrix, B: GMatrix) -> GMatrix:
    """Plain matrix product. The result is not unit-checked (products of GBH
    matrices legitimately contain zeros).

    The product takes the numeric lane: one BLAS product of coefficient
    planes per block of rows (see _lane_apply), exact on the exact backends,
    whose distinct coefficient vectors become the result's units.
    """
    _check_same_ring(A, B)
    if A.order != B.order:
        raise MatrixError("dimension mismatch")
    ring, v = A.ring, A.order
    planes, den = _lane_product(A, B)
    units, codes = _decode_planes(ring, planes.reshape(v * v, -1), den)
    return GMatrix._table(ring, units, codes.reshape(v, v))


def scalar_mul(c, M: GMatrix) -> GMatrix:
    if isinstance(c, int):
        c = M.ring.from_int(c)
    return GMatrix._table(M.ring, [c * u for u in M.units], M.idx)


def equal(A: GMatrix, B: GMatrix) -> bool:
    """Entrywise equality. Each distinct (A-unit, B-unit) pair that occurs is
    compared once, or each entry when there are more unit pairs than entries."""
    if A.ring.spec != B.ring.spec or A.order != B.order:
        return False
    na, nb = len(A.units), len(B.units)
    if na * nb > A.order**2:
        return all(a == b for ra, rb in zip(A.rows(), B.rows()) for a, b in zip(ra, rb))
    seen = np.zeros((na, nb), dtype=bool)
    seen[A.idx, B.idx] = True
    return all(A.units[a] == B.units[b] for a, b in zip(*np.nonzero(seen)))


def identity_gmatrix(ring, v, scale=1) -> GMatrix:
    """scale * I_v, unchecked (off-diagonal zeros)."""
    s = ring.from_int(scale) if isinstance(scale, int) else scale
    return GMatrix._table(ring, (s, ring.zero()), 1 - np.eye(v, dtype=np.uint8))


def from_blocks(ring, blocks) -> GMatrix:
    """Assemble a matrix from a 2D grid of GMatrix blocks."""
    rows = []
    for brow in blocks:
        for b in brow:
            _check_same_ring(b, brow[0])
        height = brow[0].order
        for i in range(height):
            rows.append([e for b in brow for e in b.row(i)])
    return GMatrix.from_rows(ring, rows)
