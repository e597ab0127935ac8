"""Jacket-form recognition, width, primality certificates, and the
jacketization constructions.

A jacket matrix is a normalised GBH of even order whose last row and column
consist of +1/-1; its width m is the largest number of +1/-1 border rows and
columns that can be arranged symmetrically (m at the top, m at the bottom, the
all-1s row first). Width 1 certifies primality: such a matrix cannot split as
a tensor product of smaller jacket matrices. perm_equivalent decides row and
column permutation equivalence by a depth-first search over column
assignments in ascending order, one node per candidate column, pruned by the
row multisets of the assigned columns, with the rows matched in order; the
search keeps one frame per assigned column on an explicit stack, so that
its depth is not bounded by the interpreter's recursion limit. Its node
budget bounds all of it but an index-sized set-up: both index arrays coded
in the narrowest dtype and one signature per column. A node costs O(v), one
running code per row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gbh import dft_matrix
from .matrix import GMatrix, MatrixError, Permutation, _check_same_ring, equal, permute, tensor
from .ring import RingContext

PRIMARY_BY_WIDTH = "primary-by-width"
UNKNOWN = "unknown"


class SearchBudgetExceeded(RuntimeError):
    """perm_equivalent ran out of its node budget before deciding."""


@dataclass
class JacketReport:
    is_jacket_form: bool
    width: int
    pm1_rows: int
    pm1_cols: int
    certificate: str
    row_witness: Permutation
    col_witness: Permutation

    def to_text(self):
        return "\n".join(
            [
                f"is-jacket-form: {str(self.is_jacket_form).lower()}",
                f"width: {self.width}",
                f"pm1-row-count: {self.pm1_rows}",
                f"pm1-col-count: {self.pm1_cols}",
                f"primary-certificate: {self.certificate}",
                f"row-witness: {list(self.row_witness.image)}",
                f"col-witness: {list(self.col_witness.image)}",
            ]
        )


def _line_kinds(M: GMatrix):
    """(rows, cols): per row and per column, 2 if the line is all 1s, 1 if
    it is all +1/-1, else 0, from one uint8 gather of M's index. Each
    distinct unit is compared once."""
    one, minus = M.ring.one(), M.ring.from_int(-1)
    kind = np.array([2 if u == one else 1 if u == minus else 0 for u in M.units], dtype=np.uint8)
    table = kind[M.idx]
    return table.min(axis=1).tolist(), table.min(axis=0).tolist()


def _jacket_order(M: GMatrix):
    if M.order % 2 != 0 or M.order < 2:
        raise MatrixError("jacket matrices have even order >= 2")
    return M.order


def _is_form(rows, cols):
    return rows[0] == 2 and cols[0] == 2 and rows[-1] >= 1 and cols[-1] >= 1


def is_jacket_form(M: GMatrix) -> bool:
    """First row/column all 1s, last row/column all +1/-1, even order.

    The GBH product property is checked separately by verify_gbh.
    """
    _jacket_order(M)
    return _is_form(*_line_kinds(M))


def _border_witness(v, pm1, ones, m):
    """Permutation sending an all-1s line first, m-1 border lines after it,
    and m border lines to the bottom."""
    first = ones[0]
    rest = [i for i in pm1 if i != first]
    top = [first] + rest[: m - 1]
    bottom = rest[m - 1 : 2 * m - 1]
    border = set(top + bottom)
    middle = [i for i in range(v) if i not in border]
    return Permutation(tuple(top + middle + bottom)).inverse()


def _to_end(v, i):
    """Permutation sending index i to v-1; each later index moves up by one."""
    return Permutation(tuple(range(i)) + tuple(range(i + 1, v)) + (i,)).inverse()


def jacket_width(M: GMatrix) -> JacketReport:
    """Width from permutation-invariant +1/-1 row/column counts.

    With r and c counting the all-(+1/-1) rows and columns (the all-1s ones
    included), the width is min(r//2, c//2, v//2): the symmetric border
    arrangement consumes 2m such rows and 2m such columns. Witness
    permutations realise one such arrangement.
    """
    v = _jacket_order(M)
    row_kinds, col_kinds = _line_kinds(M)
    pm1_rows = [i for i, k in enumerate(row_kinds) if k >= 1]
    pm1_cols = [j for j, k in enumerate(col_kinds) if k >= 1]
    one_rows = [i for i, k in enumerate(row_kinds) if k == 2]
    one_cols = [j for j, k in enumerate(col_kinds) if k == 2]
    if not one_rows or not one_cols:
        raise MatrixError("matrix is not normalisable into jacket form")
    r, c = len(pm1_rows), len(pm1_cols)
    if r < 2 or c < 2:
        raise MatrixError("not jacketizable: fewer than two +1/-1 lines")
    m = min(r // 2, c // 2, v // 2)
    form = _is_form(row_kinds, col_kinds)
    return JacketReport(
        is_jacket_form=form,
        width=m,
        pm1_rows=r,
        pm1_cols=c,
        certificate=PRIMARY_BY_WIDTH if form and m == 1 else UNKNOWN,
        row_witness=_border_witness(v, pm1_rows, one_rows, m),
        col_witness=_border_witness(v, pm1_cols, one_cols, m),
    )


def is_primary_by_width(M: GMatrix) -> str:
    """Width 1 certifies primality; width >= 2 decides nothing."""
    report = jacket_width(M)
    if not report.is_jacket_form:
        raise MatrixError("matrix is not in jacket form")
    return report.certificate


def jacketize_cbt(t: int, ring: RingContext | None = None):
    """Rotate row 2 to the bottom and column 2^(t-1)+1 to the right of the
    complex BIFORE matrix C_t, yielding a jacket matrix; defined for t >= 2.
    """
    from .catalog import cbt  # circular: catalog builds on this module

    if t < 2:
        raise MatrixError("CBT jacketization needs t >= 2")
    C = cbt(t, ring)
    rowp = _to_end(C.order, 1)
    colp = _to_end(C.order, 2 ** (t - 1))  # 0-based index of column 2^(t-1)+1
    return permute(C, rowp, colp), (rowp, colp)


def rjt_permutation(n: int) -> Permutation:
    """(j1, j0) -> (j1, (1-j1)j0 + (n-1-j0)j1) on 0..2n-1, which turns the DFT
    into the complex reverse-jacket matrix: it keeps the first half in place
    and reverses the second, so it is its own inverse."""
    return Permutation(tuple(range(n)) + tuple(range(2 * n - 1, n - 1, -1)))


def jacketize_dft(n: int, ring: RingContext):
    """The order-2n DFT matrix permuted by rjt_permutation(n) on rows and
    columns, the complex reverse-jacket matrix, and that permutation. Its
    tree is PermutedNode(DftNode(ring, 2n), p, p), one factor of a tensor
    chain, which files write as its generator and verify_gbh decides by it."""
    p = rjt_permutation(n)
    return permute(dft_matrix(2 * n, ring), p, p), p


def dagger(B: GMatrix, K: GMatrix) -> GMatrix:
    """(B tensor K) followed by the cyclic shift of row/column 2n to the
    bottom/right; B a normalised GBH, K a jacket matrix."""
    _check_same_ring(B, K)
    if not B.is_normalised():
        raise MatrixError("left factor must be normalised")
    if not is_jacket_form(K):
        raise MatrixError("right factor must be in jacket form")
    T = tensor(B, K)
    p = _to_end(T.order, K.order - 1)
    return permute(T, p, p)


def perm_equivalent(A: GMatrix, B: GMatrix, node_budget: int = 10_000_000):
    """Search for permutations (sigma, tau) with permute(A, sigma, tau) == B.

    With both index arrays coded by one unit table, B's columns are assigned
    in turn, each to an untaken column of A with the same sorted codes, tried
    in ascending order. Each such candidate is one node, kept while the rows
    of A and of B on the columns assigned so far are one multiset. Once all
    are assigned, each row of B in order takes the first untaken row of A
    with its entries, and the pair is returned if permute(A, sigma, tau) ==
    B, so the witness is the first in that order. None when no equivalence
    exists; SearchBudgetExceeded when more than node_budget nodes leave it
    undecided. On C, None only says that the search found none: a unit's
    code is the first unit within tol of it, which is not transitive, so
    A = [[1, 1], [1, 1 + 0.8 tol]] against B = [[1, 1], [1 - 0.8 tol,
    1 - 0.8 tol]] gives None, though a row swap makes them equal within tol.

    Before the first node only an index-sized set-up runs, outside the
    budget: the codes of each index in the narrowest dtype that holds them,
    with the columns as rows of a C-contiguous array, and one signature per
    column (the bytes of its sorted codes). A node costs O(v): each row
    carries one code for its entries on the assigned columns, which the
    candidate column refines through a dict of the (row code, entry) pairs of
    B's column at that depth; the rows are one multiset while the sorted
    codes of A's rows equal those of B's. The search runs on an explicit
    stack, one frame per assigned column, so that walsh(10) against itself
    reaches depth 1024.
    """
    if A.order != B.order:
        raise MatrixError("order mismatch")
    _check_same_ring(A, B)
    v = A.order
    # a unit's code: the first unit of A, else of B, that it equals, by its
    # canonical payload on an exact backend, as equal codes units; on C by
    # one numpy comparison of each unit with all, as equality within a
    # tolerance is not transitive
    units = A.units + B.units
    if A.ring.is_exact:
        first = {}
        codes = [first.setdefault(u.payload, len(first)) for u in units]
    else:
        z = np.array([u.payload for u in units], dtype=complex)
        codes = [np.argmax(np.abs(z - e) <= A.ring.tol) for e in z]
    codes = np.array(codes, dtype=np.min_scalar_type(len(units)))
    # the columns as rows: at[j] is column j of A's codes, bt[j] of B's
    at, bt = (np.ascontiguousarray(c[M.idx].T) for c, M in ((codes[: len(A.units)], A), (codes[len(A.units) :], B)))
    sig = {}
    asig, bsig = ([sig.setdefault(s.tobytes(), len(sig)) for s in np.sort(x, axis=1, kind="stable")] for x in (at, bt))
    if sorted(asig) != sorted(bsig):
        return None
    assign, taken, nodes = [], [False] * v, 0  # assign[bcol] = acol

    def level(arow, brow):
        """The frame of the next column of B: the row codes of A, those of
        B refined by that column through the dict of (row code, entry)
        pairs, their sorted codes, and the next candidate column of A."""
        pair = {}
        brow = [pair.setdefault(p, len(pair)) for p in zip(brow, bt[len(assign)].tolist())]
        return [arow, brow, pair, sorted(brow), 0]

    def witness(arow, brow, cols):
        rimg = np.empty(v, dtype=np.intp)
        rimg[np.argsort(arow, kind="stable")] = np.argsort(brow, kind="stable")
        rowp, colp = Permutation(tuple(rimg.tolist())), Permutation(tuple(cols)).inverse()
        return (rowp, colp) if equal(permute(A, rowp, colp), B) else None

    stack = [level([0] * v, [0] * v)]
    while stack:
        frame, depth = stack[-1], len(stack) - 1
        arow, brow, pair, want, start = frame
        for acol in range(start, v):
            if taken[acol] or asig[acol] != bsig[depth]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"node budget {node_budget} exceeded")
            refined = [pair.get(p, -1) for p in zip(arow, at[acol].tolist())]
            if sorted(refined) != want:
                continue
            if depth + 1 == v:
                if found := witness(refined, brow, assign + [acol]):
                    return found
                # on C alone: two units of one code may lie more than tol apart
                continue
            frame[4] = acol + 1
            assign.append(acol)
            taken[acol] = True
            stack.append(level(refined, brow))
            break
        else:
            stack.pop()
            if assign:
                taken[assign.pop()] = False
    return None


def brute_width(M: GMatrix) -> int:
    """Exhaustive width oracle for orders <= 8: tries border arrangements and
    checks the permuted entries directly against the jacket pattern."""
    if M.order > 8:
        raise MatrixError("brute_width is limited to order <= 8")
    v = _jacket_order(M)
    n = v // 2

    def check(P: GMatrix, m, axis):
        kinds = _line_kinds(P)[axis]
        border = list(range(1, m)) + list(range(v - m, v))
        return kinds[0] == 2 and all(kinds[i] >= 1 for i in border)

    def max_border(axis):
        ident = Permutation.identity(v)
        for m in range(n, 0, -1):
            for subset in itertools.combinations(range(v), 2 * m):
                for first in subset:
                    rest = [i for i in subset if i != first]
                    arrangement = (
                        [first]
                        + rest[: m - 1]
                        + [i for i in range(v) if i not in subset]
                        + rest[m - 1 :]
                    )
                    p = Permutation(tuple(arrangement)).inverse()
                    P = permute(M, p, ident) if axis == 0 else permute(M, ident, p)
                    if check(P, m, axis):
                        return m
        return 0

    mr = max_border(0)
    mc = max_border(1)
    if mr == 0 or mc == 0:
        raise MatrixError("matrix has no jacket border arrangement")
    return min(mr, mc)
