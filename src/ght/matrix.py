"""Dense square matrices over a ring context, stored as unit tables.

Entries are ring units (every exact backend here is a field, so unit ==
nonzero). The matrices of interest are Butson-type: their entries come from
a small set of units. A GMatrix therefore stores the tuple `units` of its
distinct entries, deduplicated by exact payload over the one ring object
of their spec (ght.ring.make_ring), and a read-only index array `idx` with
entry(i, j) == units[idx[i, j]]. Each operation works on that
table, never on rows of entries: star inverts the units and transposes idx,
permute indexes idx, tensor and normalize form each unit product that occurs
once and gather idx through a table of products (tensor once per distinct
unit of its smaller factor, as a block of its index that it copies to the
other entries holding that unit), and equal compares the index arrays
through a map of units by payload (on C, the entries within tol). mat_mul,
verification and every transform leaf take the numeric lane through one
kernel, _lane_apply: the backend writes a matrix's unit table as
integer coefficient planes over a common denominator (one complex plane on
the complex backend), which meet a lane batch (the other factor's table, as
_lane_batch lays it out, or signals) in one BLAS product per block of rows,
reduced by one product with the ring's reduced powers of x (_fold) and
modulo p: in floats while that is exact, in Python integers past that.

A matrix is immutable, so what is derived from it is derived once: the
index array of a matrix built from factors (tensor, the expansion of a tree,
and star of such a matrix), written on its first read; the first
star(M), with M's tree starred, kept and returned again; and, on the first
use of M in the lane, the lane form of its units (planes, denominator,
nonzero planes, their largest value, the stacked planes per dtype, the
kept operand per dtype, the stacked planes at idx, and the kept batch, its
table as _lane_batch lays it out, each where it has at most _BLOCK_VALUES
values). The memos hold O(#units * d) values besides the kept operands and
batch, never O(v^2) for a matrix past that cap: star(M) shares M's
index array, transposed, or, while that is pending, waits to read it. A
transform that applies the same matrix again writes no plane of it again.

Such a matrix forms its units at once, O(#units^2) products over its
factors, and its O(v^2) index only when something reads idx: a table
operation (permute, normalize, equal, mat_mul, scalar_mul, rows, the form
with entries of ght.fileio) or a product in the lane. A walk of its
tree, its proof by the tree or by its generator (gbh.verify_gbh reads its
units only) and the tree-only save never do, so walsh(12) and the load of a
walsh:12 file hold about 20 KB (tracemalloc), not the 16 MB of its index.

A matrix may carry a FactorTree recording how it was assembled from tensor
products, index permutations and the doubling steps [[A, A], [B, -B]] of
ght.butterfly, which the transforms walk, gbh.verify_gbh decides a matrix
by and ght.fileio writes; each node kind is one class that walks, proves
and writes itself, so none of them asks a node its type. A
matrix's tree is None or expands to the matrix. tensor, permute, star,
gbh.dft_matrix and the loads of ght.fileio build their trees so; a tree
passed to GMatrix(..., tree=) or from_rows(..., tree=) is kept only when
tree_matches finds that. A node's expand() returns a matrix whose tree is
the node itself (a Leaf's, its matrix); a chain of tensor nodes expands
balanced, whatever its shape (TensorNode.expand), as the product is
associative, over the one flat tuple of its factors that the transforms walk.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ring import RingContext, RingElement, RingError


class MatrixError(ValueError):
    """Shape, ring, or entry violations."""


# The largest order a matrix file or a catalog token may ask for: that of
# walsh(12). A tree-only file of a few KB, or a token such as walsh:20, could
# otherwise ask for 2^40 index bytes. The constructors themselves are unbounded.
ORDER_LIMIT = 4096


def within_limit(n, what):
    """n, or a MatrixError for an int above ORDER_LIMIT: a w or a group order
    from the CLI or a file header, checked before anything grows with it."""
    if isinstance(n, int) and n > ORDER_LIMIT:
        raise MatrixError(f"{what} {n} is above the limit {ORDER_LIMIT}")
    return n


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
    """Construction record: leaf matrices combined by tensor products,
    row/column permutations and doubling steps (see butterfly), or a
    generator's own node (see gbh). A node kind is one class that carries
    all the library does with it: order, expand() and star(), a tree of
    the starred matrix; factors, the one flattening of a tensor chain,
    which the walk, the expansion and the proof of a TensorNode all read;
    walk, leaves() and cost() for the transforms, which a kind either takes
    from its factors or, being one factor itself, overrides;
    gbh_proof(leaf_passes), how it proves M M* = v I, "generator", "tree"
    or None, given whether a leaf matrix L has L L* = order * I (gbh); and
    for files its kind,
    to_json(write_leaf), with each leaf matrix as write_leaf writes it, and
    the class method from_json(data, read), with read the file's reader
    (ght.fileio)."""

    @property
    def factors(self) -> tuple["FactorTree", ...]:
        """The factors of its Kronecker product, each walked, expanded and
        proved as one; a generator is one factor."""
        return (self,)

    def walk(self, X, den, big):
        """Its matrix times the (order, n) lane batch X / den, as _walk."""
        return _walk(self.factors, X, den, big)

    def leaves(self) -> tuple["GMatrix", ...]:
        """The leaf matrices, left to right, that a walk meets in reverse."""
        return tuple(L for f in self.factors for L in f.leaves())

    def cost(self):
        """(mul, add): the ring multiplications and additions of one walk of
        one vector. A factor of order a is applied order / a times."""
        v, mul, add = self.order, 0, 0
        for f in self.factors:
            (m, a), n = f.cost(), v // f.order
            mul, add = mul + n * m, add + n * a
        return mul, add


def _walk(factors, X, den, big):
    """(Y, den', big'): the product of the factors times each vector of the
    batch X / den is Y / den', and big' >= max|Y| on the exact backends,
    given big >= max|X|. Right to left, one transpose brings the axis of
    each factor, of order a, to the front of the rows, and the factor walks
    the batch as an (a, -1) array."""
    c = X.shape[1]
    for f in reversed(factors):
        a = f.order
        X = X.reshape(-1, a, c).transpose(1, 0, 2).reshape(a, -1)
        X, den, big = f.walk(X, den, big)
    return X.reshape(-1, c), den, big


@dataclass(frozen=True)
class Leaf(FactorTree):
    matrix: "GMatrix"
    kind = "leaf"

    @property
    def order(self):
        return self.matrix.order

    def expand(self):
        return self.matrix

    def star(self):
        return Leaf(star(self.matrix))

    def walk(self, X, den, big):
        return _lane_apply(self.matrix, X, den, big)

    def leaves(self):
        return (self.matrix,)

    def cost(self):
        a = self.order
        return a * a, a * (a - 1)

    def gbh_proof(self, leaf_passes):
        return "tree" if leaf_passes(self.matrix) else None

    def to_json(self, write_leaf):
        return {"kind": self.kind, "matrix": write_leaf(self.matrix)}

    @classmethod
    def from_json(cls, data, read):
        return read.leaf(data)


@dataclass(frozen=True)
class TensorNode(FactorTree):
    left: FactorTree
    right: FactorTree
    kind = "tensor"

    @property
    def order(self):
        return self.left.order * self.right.order

    def expand(self):
        """The Kronecker product of the factors of this chain of tensor
        nodes, left to right, whose tree is this node. The product is split
        where the two sides' orders come nearest each other (it is
        associative), and so is each side. The split is made once, here: its
        tensors form the units at once, and their pending indices, which the
        first read of the product's writes, follow the same split, so the
        codes agree. A chain of t factors of order 2 so ends in one product
        of two factors of order about 2^(t/2), and the products before it
        write a few per cent of its output; the left-deep chain ends in
        2^(t-1) (x) 2, which gathers the whole index twice and writes it
        again by strided copies, after writing a third of it in the steps
        before: by _kron_index's block writes, walsh(12)'s index takes 55 ms
        left-deep and 9 ms balanced."""

        def product(ms):
            if len(ms) == 1:
                return ms[0]
            orders = [M.order for M in ms]
            k = min(range(1, len(ms)), key=lambda k: max(math.prod(orders[:k]), math.prod(orders[k:])))
            return tensor(product(ms[:k]), product(ms[k:]))

        M = product([node.expand() for node in self.factors])
        return GMatrix._table(M.ring, M.units, M._pending or M.idx, self)

    def star(self):
        return TensorNode(self.left.star(), self.right.star())

    @cached_property
    def factors(self):
        return self.left.factors + self.right.factors

    def gbh_proof(self, leaf_passes):
        """(A (x) B)(A (x) B)* = A A* (x) B B*: by its factors."""
        return "tree" if all(node.gbh_proof(leaf_passes) for node in self.factors) else None

    def to_json(self, write_leaf):
        return {"kind": self.kind, "left": self.left.to_json(write_leaf), "right": self.right.to_json(write_leaf)}

    @classmethod
    def from_json(cls, data, read):
        left = read.node(data, "left")
        return cls(left, read.node(data, "right", beside=left.order))


@dataclass(frozen=True)
class PermutedNode(FactorTree):
    child: FactorTree
    rowp: Permutation
    colp: Permutation
    kind = "permuted"

    @property
    def order(self):
        return self.child.order

    def expand(self):
        """The child's expansion permuted, whose index is pending while the
        child's is."""
        return _permute(self.child.expand(), self)

    def star(self):
        return PermutedNode(self.child.star(), self.colp, self.rowp)

    @cached_property
    def gathers(self):
        """(cols, rows): intp arrays, kept, with (P M Q) x = (M x[cols])[rows]."""
        return np.array(self.colp.image, dtype=np.intp), np.argsort(self.rowp.image)

    def walk(self, X, den, big):
        cols, rows = self.gathers
        Y, den, big = self.child.walk(X[cols], den, big)
        return Y[rows], den, big

    def leaves(self):
        return self.child.leaves()

    def cost(self):
        return self.child.cost()

    def gbh_proof(self, leaf_passes):
        """P M Q (P M Q)* = P M M* P^-1: by its child."""
        return self.child.gbh_proof(leaf_passes)

    def to_json(self, write_leaf):
        child = self.child.to_json(write_leaf)
        return {"kind": self.kind, "child": child, "row": list(self.rowp.image), "col": list(self.colp.image)}

    @classmethod
    def from_json(cls, data, read):
        return cls(read.node(data, "child"), read.permutation(data, "row"), read.permutation(data, "col"))


def _unit_table(entries):
    """(units, codes): the distinct entries by ring and exact payload, as ==
    compares exact units, in order of first occurrence, and each entry's
    position in `units`. A spec names one ring object (ght.ring.make_ring),
    so equal units of one ring are one."""
    first = {}
    try:
        codes = [first.setdefault((id(e.ring), e.payload), (len(first), e))[0] for e in entries]
    except AttributeError:
        raise MatrixError("matrix entries must be ring elements") from None
    return [e for _, e in first.values()], np.array(codes, dtype=np.intp)


@dataclass(frozen=True)
class _Pending:
    """An index array not yet written: write() returns it, order x order."""

    order: int
    write: object


def _derived(M, write):
    """write(), an index array read from M's, now when M's index is written,
    else pending until it is read."""
    return write() if M._pending is None else _Pending(M.order, write)


class GMatrix:
    """Immutable square matrix of ring units: entry(i, j) == units[idx[i, j]].

    `array` is a square object array of RingElements, or an integer array
    whose values are embedded through the ring (a +1/-1 Sylvester array over
    the rationals, say). Each distinct unit is validated once. A tree given
    here is kept when tree_matches(tree, M), and dropped otherwise.

    The units are always at hand. The index array of a matrix built from
    factors (tensor, a tree's expansion, and star of such a matrix) is
    pending: it is written the first time idx is read, kept read-only, and
    never written again, so that a transform or a proof that reads only the
    factors never writes it.
    """

    __slots__ = ("ring", "order", "tree", "units", "_pending", "_star", "_lane", "_idx", "__weakref__")

    def __init__(self, ring: RingContext, array, tree=None):
        a = np.asarray(array)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError("matrix must be square")
        if a.dtype == object:
            units, codes = _unit_table(a.ravel())
        elif a.dtype.kind in "iu":
            # the sorted distinct values, and each entry's position among
            # them found a block of rows at a time into the narrowest type:
            # np.unique(return_inverse=True) sorts an intp argsort of all of
            # a, a 6.8 MB peak for a 512 x 512 table of int8 (and without it
            # np.unique imports numpy.ma on its first call)
            s = np.sort(a, axis=None)
            keep = np.ones(len(s), dtype=bool)
            np.not_equal(s[1:], s[:-1], out=keep[1:])
            values = s[keep]
            units = [ring.from_int(int(n)) for n in values]
            codes = np.empty(a.shape, dtype=np.min_scalar_type(len(values) - 1))
            for rows in _row_blocks(*a.shape):
                codes[rows] = np.searchsorted(values, a[rows])
        else:
            raise MatrixError("entries must be ring elements or integers")
        self._fill(ring, units, codes.reshape(a.shape), None)
        self._validate_units()
        if tree is not None and tree_matches(tree, self):
            object.__setattr__(self, "tree", tree)

    @classmethod
    def _table(cls, ring, units, idx, tree=None):
        """Unchecked matrix from a unit list and an index array or a pending
        one (_Pending); the caller vouches for the units and for the tree."""
        M = object.__new__(cls)
        M._fill(ring, units, idx, tree)
        return M

    def _fill(self, ring, units, idx, tree):
        pending = idx if isinstance(idx, _Pending) else None
        values = (ring, len(idx) if pending is None else pending.order, tree, tuple(units), pending, None, None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        if pending is None:
            self._keep(idx)

    def _keep(self, idx):
        """Keep idx as the index array, read-only, in the narrowest type."""
        idx = idx.astype(np.min_scalar_type(len(self.units) - 1), copy=False)
        idx.flags.writeable = False
        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_pending", None)
        return idx

    @property
    def idx(self):
        """The index array; the first read of a pending one writes it."""
        return self._idx if self._pending is None else self._keep(self._pending.write())

    def __setattr__(self, name, value):
        raise AttributeError("GMatrix is immutable")

    def __reduce__(self):
        """copy, deepcopy and pickle rebuild the unit table and the tree over
        the live ring, and nothing kept on it; they read idx, so a pending
        index is written first."""
        return GMatrix._table, (self.ring, self.units, self.idx, self.tree)

    def _validate_units(self):
        zero = self.ring.zero()
        for k, u in enumerate(self.units):
            if not isinstance(u, RingElement) or u.ring is not self.ring:
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
        a tree given here is kept as GMatrix keeps it."""
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
    if A.ring is not B.ring:
        raise MatrixError("ring mismatch")


def _unit_products(left, right, seen):
    """(products, table): the distinct products left[a] * right[b] over the
    pairs (a, b) that the boolean array seen marks, and table[a, b] = the
    position of that product in products (0 elsewhere), in the narrowest type."""
    a, b = np.nonzero(seen)
    products, codes = _unit_table([left[i] * right[j] for i, j in zip(a.tolist(), b.tolist())])
    table = np.zeros(seen.shape, dtype=np.min_scalar_type(len(products) - 1))
    table[a, b] = codes
    return products, table


def _row_blocks(n, width):
    """Slices of rows of an n x width array holding _BLOCK_VALUES values each:
    numpy casts the index arrays of a gather to intp, 8 bytes an entry."""
    step = max(1, _BLOCK_VALUES // max(1, width))
    return [slice(r, r + step) for r in range(0, n, step)]


def star(M: GMatrix) -> GMatrix:
    """M* : transpose of the entrywise inverses; an involution. The first
    call keeps M* on M and M, by a weak reference, on M*, so star(star(M))
    is M and the pair is freed without the cyclic collector. M* carries
    M.tree.star(), which expands to M* as M.tree expands to M.

    M* shares M's index array, transposed. Where M's is pending, so is
    M*'s: its first read takes M.idx.T through the weak reference while M
    lives, else writes M's pending index itself, so that its codes are
    those of M's units, and holds no reference to M."""
    S = M._star() if isinstance(M._star, weakref.ref) else M._star
    if S is None:
        tree = None if M.tree is None else M.tree.star()
        ref, pending = weakref.ref(M), M._pending
        idx = _derived(M, lambda: (pending.write() if (N := ref()) is None else N.idx).T)
        S = GMatrix._table(M.ring, [u.inverse() for u in M.units], idx, tree)
        object.__setattr__(M, "_star", S)
        object.__setattr__(S, "_star", ref)
    return S


def tensor(A: GMatrix, B: GMatrix) -> GMatrix:
    """Kronecker product; the result records both factors in its tree. Each
    unit product is formed once, at once, and the index is pending: its
    first read writes it (_kron_index) from A.idx and B.idx, so that a
    product that is only walked or proved by its tree never writes it."""
    _check_same_ring(A, B)
    every_pair = np.ones((len(A.units), len(B.units)), dtype=bool)
    products, table = _unit_products(A.units, B.units, every_pair)
    idx = _Pending(A.order * B.order, lambda: _kron_index(A.idx, B.idx, table))
    return GMatrix._table(A.ring, products, idx, TensorNode(A.as_tree(), B.as_tree()))


def _kron_index(a, b, table):
    """The index of A (x) B from the index arrays a and b and table[i, j],
    the code of the product of unit i of A and unit j of B, written as
    blocks, one per entry of the smaller factor: the block of each distinct
    unit of that factor (table[i][b] for a unit i of A, table[:, j][a] for
    a unit j of B) is gathered once, into the output _BLOCK_VALUES indices
    at a time, and copied to the other entries that hold that unit. No
    temporary outgrows a row block, and each output entry is written once:
    tensor(walsh(6), walsh(6)) took 152 ms with a gather per entry of the
    smaller factor, and takes about 10 ms so."""
    va, vb = len(a), len(b)
    # entry (i*vb + k, j*vb + l), here [i, k, j, l], is A[i, j] * B[k, l]
    idx = np.empty((va, vb, va, vb), dtype=table.dtype)
    if va <= vb:
        small, big, lookup, block = a, b, table, lambda i, j: idx[i, :, j, :]
    else:
        small, big, lookup, block = b, a, table.T, lambda k, l: idx[:, k, :, l]
    first = {}  # a unit of the smaller factor -> its block, written
    cells = itertools.product(range(len(small)), repeat=2)
    slices = _row_blocks(*big.shape)
    for cell, u in zip(cells, small.ravel().tolist()):
        out, written = block(*cell), first.get(u)
        # numpy copies a source whose bounds meet the target's (two blocks
        # of one index) into a temporary first, so copies too go by row blocks
        for rows in slices:
            out[rows] = lookup[u][big[rows]] if written is None else written[rows]
        first.setdefault(u, out)
    return idx.reshape(va * vb, va * vb)


def permute(M: GMatrix, rowp: Permutation, colp: Permutation) -> GMatrix:
    """Entry (i, j) of the result is M[rowp^-1(i), colp^-1(j)]: a table,
    gathered now from M's index, which this writes if it is pending."""
    M.idx  # written here, so that _permute gathers now
    return _permute(M, PermutedNode(M.as_tree(), rowp, colp))


def _permute(M: GMatrix, node: PermutedNode) -> GMatrix:
    """M permuted by node's permutations, with node as its tree; its index is
    pending while M's is."""
    rowp, colp = node.rowp, node.colp
    if rowp.order != M.order or colp.order != M.order:
        raise MatrixError("permutation size mismatch")
    rinv = rowp.inverse().image
    cinv = colp.inverse().image
    return GMatrix._table(M.ring, M.units, _derived(M, lambda: M.idx[np.ix_(rinv, cinv)]), node)


def normalize(M: GMatrix):
    """Scale rows then columns so the first row and column are all 1s.

    Returns (N, row_scalars, col_scalars) with
    M[i][j] == row_scalars[i] * N[i][j] * col_scalars[j].

    The rows are scaled by the inverses of their entries in column 0, then
    the columns (on the transposed table) by theirs in row 0, each by one
    gather through the unit products that occur, marked in a mask of heads x
    units and formed once; numpy gathers a pair at head * #units + unit three
    times faster than at table[head, unit]. N's units are checked once each.
    """
    units, idx, scalars = M.units, M.idx, []
    for _ in range(2):
        scalars.append([units[k] for k in idx[:, 0].tolist()])
        heads, pos = np.unique(idx[:, 0], return_inverse=True)
        n = len(units)
        pairs = lambda rows: pos[rows, None] * n + idx[rows]
        seen = np.zeros(len(heads) * n, dtype=bool)
        for rows in _row_blocks(*idx.shape):
            seen[pairs(rows)] = True
        inverses = [units[k].inverse() for k in heads.tolist()]
        units, table = _unit_products(inverses, units, seen.reshape(len(heads), -1))
        out = np.empty(idx.shape, dtype=table.dtype)
        for rows in _row_blocks(*idx.shape):
            np.take(table, pairs(rows), out=out[rows])
        idx = out.T
    N = GMatrix._table(M.ring, units, idx)
    N._validate_units()
    return N, *scalars


# values of A's stacked planes gathered per BLAS call in _lane_apply, per
# column of the batch: a thin batch (a signal) meets A 256-512 KB at a time,
# as a fresh large temporary costs more than the product it feeds (ght of
# walsh(10) took twice as long with one 4 MB block). A wide batch, as in a
# product with v columns (verify, mat_mul; v * d for star(M) of a DFT over
# Q(zeta_v)), takes as many rows as keep the block of its product within
# _PRODUCT_VALUES, and the blocks are written into one output array: ght
# verify of a dft(128) entries file over Q(zeta_128) peaked at 1146 MB with
# one block, and verify_gbh of a 512 x 512 +-1 table that is not decided by
# its tree had 5 MB of numpy temporaries live at once, 3 MB so. The lane
# batch of a table (_lane_batch), the positions of an integer array's
# entries (GMatrix) and the gathers of normalize and equal are written
# _BLOCK_VALUES entries at a time (_row_blocks).
_BLOCK_VALUES = 2**16
_PRODUCT_VALUES = 2**16


# the most fold rows one lane may hold, #nonzero planes * d^2 values (128 MB
# in float64): one plane of any ring the loader accepts (d <= 4092) passes,
# as does dft(512) over Q(zeta_512) (2^24), but not dft(9) over Q(zeta_4095)
_FOLD_VALUES = 2**24


@lru_cache(maxsize=64)
def _fold(ring, ma):
    """(G, rows): rows(dtype), built once per dtype, holds x^(ma[i] + j)
    reduced in row i * d + j, the integers of ring._lane_fold() cast to dtype
    (float64 is exact whenever _lane_dtype picks it, as G >= max|rows|), and
    G, the largest column sum of |rows|, is counted without building them.
    Keyed by ring, one object per spec: a matrix keeps O(#units * d)."""
    d = ring._lane_dim
    if len(ma) * d * d > _FOLD_VALUES:
        raise MatrixError(f"a lane fold of {len(ma)} planes of {ring!r} is above the limit of {_FOLD_VALUES} values")
    table, powers = ring._lane_fold(), np.add.outer(ma, np.arange(d)).ravel()
    rows = lru_cache(maxsize=None)(lambda dtype: table.astype(dtype)[powers])
    return int((np.bincount(powers, minlength=len(table)) @ np.abs(table)).max()), rows


class _UnitLane:
    """The lane form of a list of units: `planes`, the d lists of their
    coefficients over the common denominator `den` that
    RingContext._lane_planes writes, and `table`, the same as a read-only
    (d, k) array (int64, or Python integers in an object array where a value
    is out of int64's range, as np.array would turn those in [2^63, 2^64)
    into float64 unless asked for int64; complex128 on the complex backend).
    A matrix keeps its units' lane (_lane_of), and with it what _lane_apply
    derives from the planes on first use: the indices of the nonzero planes,
    the largest |coefficient| in them, and per dtype one read-only stack of
    those planes and, for a small matrix, its kept operand; and, for a
    small matrix, its table laid out once as a lane batch (batch). They are
    read from the lists, as a few numpy calls on a small table cost more."""

    __slots__ = ("planes", "den", "table", "_nonzero", "_stacks", "_batch")

    def __init__(self, ring, units):
        self.planes, self.den = ring._lane_planes(units)
        try:
            table = np.array(self.planes, dtype=np.int64 if ring.is_exact else np.complex128)
        except OverflowError:
            table = np.array(self.planes, dtype=object)
        table.flags.writeable = False
        self.table, self._nonzero, self._stacks, self._batch = table, None, {}, None

    def nonzero(self):
        """(ma, big): the indices of the nonzero planes ((0,) when all are
        zero) and the largest |coefficient| in them (a bound only on the
        exact backends)."""
        if self._nonzero is None:
            ma = tuple(m for m, plane in enumerate(self.planes) if any(plane)) or (0,)
            self._nonzero = ma, max(abs(c) for m in ma for c in self.planes[m])
        return self._nonzero

    def stack(self, dtype, idx=None):
        """The nonzero planes as one read-only array of dtype, whose values
        the caller has bounded to fit it; given the index array idx of the
        matrix that keeps this lane, its kept operand stack(dtype)[:, idx]."""
        key = dtype if idx is None else (dtype, "operand")
        ua = self._stacks.get(key)
        if ua is None:
            if idx is None:
                ua = np.array([self.planes[m] for m in self.nonzero()[0]], dtype=dtype)
            else:
                ua = self.stack(dtype)[:, idx].reshape(-1, len(idx))
            ua.flags.writeable = False
            self._stacks[key] = ua
        return ua

    def batch(self, idx):
        """_lane_batch(self, idx), given the index array idx of the matrix
        that keeps this lane: gathered once and kept, read-only, where it has
        at most _BLOCK_VALUES values, as the right operand of M M* is star(M)'s
        table on every proof; gathered on each call past that."""
        if self._batch is None and idx.size * len(self.table) <= _BLOCK_VALUES:
            self._batch = _lane_batch(self, idx)
            self._batch[0].flags.writeable = False
        return self._batch or _lane_batch(self, idx)


def _lane_of(M: GMatrix) -> _UnitLane:
    """The lane form of M's units, written on first use and kept on M."""
    if M._lane is None:
        object.__setattr__(M, "_lane", _UnitLane(M.ring, M.units))
    return M._lane


def _lane_batch(lane: _UnitLane, idx):
    """(X, den, big): a matrix's table units[idx] of n columns, whose units
    have the lane form `lane` (_lane_of(M), kept on M), as a lane batch over
    the common denominator den, with big >= max|X| for _lane_apply: a
    (v, n * d) array whose column k * d + m holds coefficient plane m of
    column k, in the narrowest integer type its exact values fit (int8 for a
    +-1 table; _lane_apply casts it once to the type of its product). It is
    gathered _BLOCK_VALUES indices at a time, as numpy casts each index block
    to intp: a 512 x 512 table took 2 MB of intp indices and 2 MB of int64
    values at once."""
    big = lane.nonzero()[1]
    dtype = lane.table.dtype
    if dtype == np.int64:
        dtype = np.min_scalar_type(-big)
    X = np.empty((len(idx), idx.shape[1] * lane.table.shape[0]), dtype=dtype)
    for rows in _row_blocks(*idx.shape):
        block = lane.table.T[idx[rows]]
        X[rows] = block.reshape(len(block), -1)
    return X, lane.den, big


def _lane_max(X):
    """max|X| from max and min: np.abs leaves -2^63 negative in int64."""
    return max(int(X.max()), -int(X.min()))


def _lane_dtype(ring, G, t):
    """(dtype, big) for plane products A_m X_j no larger than
    t = v * max|a| * big_x in size, folded by rows whose largest column sum
    in size is G (_fold; G = 0 where nothing is folded). Characteristic
    p > 0 reduces them below p in size before the fold, so a folded value and
    each of its partial sums is at most (p - 1) * G, else t * G, and a value
    met is at most bound = max(t, (p - 1 or t) * G): float32 for one plane
    while bound < 2^24, float64 while bound < 2^53, else Python integers in
    an object array. big >= the returned values is p - 1, or bound."""
    p = ring.characteristic()
    bound = max(t, (p - 1 if p else t) * G)
    dtype = np.float32 if ring._lane_dim == 1 and bound < 2**24 else np.float64 if bound < 2**53 else object
    return dtype, p - 1 if p else bound


def _lane_cast(X, dtype):
    """X as dtype, which the caller took from _lane_dtype; float lane values
    are integers, so they become Python integers by way of int64."""
    if dtype == object and X.dtype.kind == "f":
        X = X.astype(np.int64)
    return X.astype(dtype, copy=False)


def _lane_apply(A: GMatrix, X, den_x, big_x):
    """(planes, den, big): A times the lane batch X / den_x of n vectors
    (see _lane_batch), as a (v, n, d) array of reduced coefficients over
    den = den_x times A's plane denominator. The caller passes
    big_x >= max|X|, and big >= max|planes| comes back (None on the complex
    backend), so that a walk carries the bound from leaf to leaf and a table
    batch takes it from _lane_batch. This is the one kernel of the numeric
    lane: mat_mul, verification and every transform leaf call it.

    A's unit table is written as coefficient planes once and kept on A
    (_lane_of), and its nonzero planes, stacked as rows, meet X in one BLAS
    product per block of rows, whose blocks are the plane products A_m X_j.
    For d > 1 these are laid out as columns (m, j) and multiplied once by
    the fold rows of the ring (_fold), row (m, j) holding x^(m + j) reduced
    (modulo Phi_w, or modulo y^2 + c1 y + c0); a backend of characteristic
    p reduces modulo p before that fold and after it, and after the product
    alone where nothing is folded: d = 1, or plane 0 alone (identity rows).
    On an exact backend _lane_dtype picks the product's dtype from
    t = v * max|a| * big_x and the fold's G. Where big_x would take a wider
    dtype than float32 for one plane or float64, X is measured once and the
    smaller bound taken, so that no leaf is slower for the carried bound. X
    is cast to that dtype once, and A's stacked planes are kept per dtype,
    since a leaf may meet a small batch and then one past 2^53. The complex
    backend multiplies its complex128 plane as is. A block of rows is
    bounded both by the values of A it gathers and by the values of the
    product it makes (_BLOCK_VALUES, _PRODUCT_VALUES), and two or more
    blocks are written into one (v, n, d) array as they are reduced. A
    product in one block whose operand, A's planes at A.idx, has at most
    _BLOCK_VALUES values takes that operand from A's lane, which keeps it
    per dtype.
    """
    ring, v, d, p = A.ring, A.order, A.ring._lane_dim, A.ring.characteristic()
    lane = _lane_of(A)
    ma, big_a = lane.nonzero()
    G, fold_rows = _fold(ring, ma) if d > 1 and ma != (0,) else (0, None)
    dtype, big = np.complex128, None
    if ring.is_exact:
        dtype, big = _lane_dtype(ring, G, v * big_a * big_x)
        if dtype is object or d == 1 and dtype is np.float64:
            dtype, big = _lane_dtype(ring, G, v * big_a * min(big_x, _lane_max(X)))
    fold = fold_rows(dtype) if fold_rows else None
    X = _lane_cast(X, dtype)
    n = X.shape[1] // d
    den = den_x * lane.den
    gather = _BLOCK_VALUES * X.shape[1] // (len(ma) * v)
    rows = max(1, min(gather, _PRODUCT_VALUES // (len(ma) * X.shape[1])))
    kept = rows >= v and len(ma) * v * v <= _BLOCK_VALUES
    out, a = None, A.idx
    for r in range(0, v, rows):
        idx = a[r : r + rows]
        prod = planes = (lane.stack(dtype, a) if kept else lane.stack(dtype)[:, idx].reshape(-1, v)).dot(X)
        if fold is not None:
            # prod, the BLAS output, is kept until the fold has written planes:
            # M M* of dft(60) over Q(zeta_60) was slower when it was not
            if p:  # to |values| < p, as the bound asks: fmod is 5x faster on floats
                (np.remainder if dtype is object else np.fmod)(prod, p, out=prod)
            planes = prod.reshape(len(ma), -1, d).transpose(1, 0, 2).reshape(-1, len(ma) * d).dot(fold)
        if p:
            np.remainder(planes, p, out=planes)
        block = planes.reshape(len(idx), n, d)
        if rows >= v:
            return block, den, big
        if out is None:
            out = np.empty((v, n, d), dtype=block.dtype)
        out[r : r + rows] = block
    return out, den, big


def _decode_planes(ring, vecs, den):
    """(units, codes): the ring elements of the rows of vecs / den, a (k, d)
    array of reduced coefficients, each distinct row decoded once, and each
    row's position in units. The rows are found by a dict: at signal sizes
    that costs less than a sort, and np.unique(axis=0) rejects the object
    arrays of Python integers."""
    if vecs.dtype.kind == "f":
        vecs = vecs.astype(np.int64)
    one = vecs.shape[1] == 1  # one plane: int keys, which cost less than tuples
    keys = vecs.ravel().tolist() if one else list(map(tuple, vecs.tolist()))
    decode = lambda key: ring.element(ring._lane_payload((key,) if one else key, den))
    first = {}
    codes = [first.setdefault(key, len(first)) for key in keys]
    return [decode(key) for key in first], np.array(codes, dtype=np.intp)


def mat_mul(A: GMatrix, B: GMatrix) -> GMatrix:
    """Plain matrix product. The result is not unit-checked (products of GBH
    matrices legitimately contain zeros).

    The product takes the numeric lane: B's unit table, laid out as a lane
    batch from the lane form kept on B (_UnitLane.batch, which keeps a small
    one), meets A in _lane_apply, exact on the exact backends, and the
    distinct coefficient vectors of the product become the result's units.
    """
    _check_same_ring(A, B)
    if A.order != B.order:
        raise MatrixError("dimension mismatch")
    ring, v = A.ring, A.order
    planes, den, _ = _lane_apply(A, *_lane_of(B).batch(B.idx))
    units, codes = _decode_planes(ring, planes.reshape(v * v, -1), den)
    return GMatrix._table(ring, units, codes.reshape(v, v))


def scalar_mul(c, M: GMatrix) -> GMatrix:
    if isinstance(c, int):
        c = M.ring.from_int(c)
    return GMatrix._table(M.ring, [c * u for u in M.units], M.idx)


def equal(A: GMatrix, B: GMatrix) -> bool:
    """Entrywise equality, by the index arrays a block of rows at a time
    (_row_blocks). On an exact backend, where payloads are canonical, the
    units of B and then of A are coded by payload, so that a unit of A
    absent from B has a code that B lacks, and the coded index arrays are
    compared; on the complex backend each pair of entries is compared within
    tol, since that equality is not transitive."""
    if A.ring is not B.ring or A.order != B.order:
        return False
    if A.ring.is_exact:
        first = {}
        tb, ta = ([first.setdefault(u.payload, len(first)) for u in M.units] for M in (B, A))
        ta, tb = (np.array(t, dtype=np.min_scalar_type(len(first))) for t in (ta, tb))
        same = np.equal
    else:
        ta, tb = (np.array([u.payload for u in M.units], dtype=np.complex128) for M in (A, B))
        same = lambda a, b: np.abs(a - b) <= A.ring.spec.tol
    blocks = _row_blocks(A.order, A.order)
    return all(same(np.take(ta, A.idx[rows]), np.take(tb, B.idx[rows])).all() for rows in blocks)


def tree_matches(tree: FactorTree, M: GMatrix) -> bool:
    """Whether tree expands to M; a tree that cannot expand, as a generator
    over a ring without a root of its order, does not."""
    try:
        return equal(tree.expand(), M)
    except RingError:
        return False

