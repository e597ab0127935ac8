"""Jacket-form recognition, width, primality certificates, and the
jacketization constructions.

A jacket matrix is a normalised GBH of even order whose last row and column
consist of +1/-1; its width m is the largest number of +1/-1 border rows and
columns that can be arranged symmetrically (m at the top, m at the bottom, the
all-1s row first). Width 1 certifies primality: such a matrix cannot split as
a tensor product of smaller jacket matrices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .matrix import GMatrix, MatrixError, Permutation, equal, permute, tensor
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


def _line_kinds(M: GMatrix, axis):
    """Per row (axis 0) or column (axis 1): 2 if the line is all 1s, 1 if it
    is all +1/-1, else 0. Each distinct unit is compared once."""
    one, minus = M.ring.one(), M.ring.from_int(-1)
    kind = np.array([2 if u == one else 1 if u == minus else 0 for u in M.units])
    return kind[M.idx].min(axis=1 - axis).tolist()


def is_jacket_form(M: GMatrix) -> bool:
    """First row/column all 1s, last row/column all +1/-1, even order.

    The GBH product property is checked separately by verify_gbh.
    """
    v = M.order
    if v % 2 != 0 or v < 2:
        raise MatrixError("jacket matrices have even order >= 2")
    rows, cols = _line_kinds(M, 0), _line_kinds(M, 1)
    return rows[0] == 2 and cols[0] == 2 and rows[-1] >= 1 and cols[-1] >= 1


def _border_witness(v, pm1, ones, m):
    """Permutation sending an all-1s line first, m-1 border lines after it,
    and m border lines to the bottom."""
    first = ones[0]
    rest = [i for i in pm1 if i != first]
    top = [first] + rest[: m - 1]
    bottom = rest[m - 1 : 2 * m - 1]
    middle = [i for i in range(v) if i not in top and i not in bottom]
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
    v = M.order
    if v % 2 != 0 or v < 2:
        raise MatrixError("jacket matrices have even order >= 2")
    row_kinds = _line_kinds(M, 0)
    col_kinds = _line_kinds(M, 1)
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
    form = is_jacket_form(M)
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
    return PRIMARY_BY_WIDTH if report.width == 1 else UNKNOWN


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
    columns, the complex reverse-jacket matrix, and that permutation."""
    from .gbh import _power_table

    # the table of dft_matrix(2n) without its Good-Thomas tree: RJT_n is one
    # leaf of order 2n, so that the family trees keep their factor orders
    # (2, 4, 2n)
    F = _power_table(ring, ring.root_powers(2 * n))
    F._validate_units()
    p = rjt_permutation(n)
    return permute(F, p, p), p


def dagger(B: GMatrix, K: GMatrix) -> GMatrix:
    """(B tensor K) followed by the cyclic shift of row/column 2n to the
    bottom/right; B a normalised GBH, K a jacket matrix."""
    if B.ring.spec != K.ring.spec:
        raise MatrixError("ring mismatch")
    if not B.is_normalised():
        raise MatrixError("left factor must be normalised")
    if not is_jacket_form(K):
        raise MatrixError("right factor must be in jacket form")
    T = tensor(B, K)
    p = _to_end(T.order, K.order - 1)
    return permute(T, p, p)


def perm_equivalent(A: GMatrix, B: GMatrix, node_budget: int = 10_000_000):
    """Search for permutations (sigma, tau) with permute(A, sigma, tau) == B.

    Backtracks over the column assignment with row-multiset pruning; branches
    lexicographically, so the witness is deterministic. Returns the pair, or
    None when no equivalence exists. Raises SearchBudgetExceeded when the node
    cap is hit before the search is decided.
    """
    if A.order != B.order:
        raise MatrixError("order mismatch")
    if A.ring.spec != B.ring.spec:
        raise MatrixError("ring mismatch")
    v = A.order
    # a unit's code: the first unit of A, else of B, that it ==; complex units
    # are unhashable, because == within a tolerance is not transitive
    units = A.units + B.units
    codes = np.array([next(k for k, u in enumerate(units) if u == e) for e in units])
    akeys = codes[: len(A.units)][A.idx].tolist()
    bkeys = codes[len(A.units) :][B.idx].tolist()
    acol_sig = [tuple(sorted(akeys[i][j] for i in range(v))) for j in range(v)]
    bcol_sig = [tuple(sorted(bkeys[i][j] for i in range(v))) for j in range(v)]
    if Counter(acol_sig) != Counter(bcol_sig):
        return None

    assign = [-1] * v  # assign[bcol] = acol
    used = [False] * v
    nodes = 0

    def prefix_ok(depth):
        ap = Counter(
            tuple(akeys[i][assign[d]] for d in range(depth)) for i in range(v)
        )
        bp = Counter(tuple(bkeys[i][d] for d in range(depth)) for i in range(v))
        return ap == bp

    def match_rows():
        groups = {}
        for i in range(v):
            key = tuple(akeys[i][assign[d]] for d in range(v))
            groups.setdefault(key, []).append(i)
        rimg = [-1] * v
        for brow in range(v):
            key = tuple(bkeys[brow])
            bucket = groups.get(key)
            if not bucket:
                return None
            rimg[bucket.pop(0)] = brow
        return Permutation(tuple(rimg))

    def backtrack(depth):
        nonlocal nodes
        if depth == v:
            rowp = match_rows()
            if rowp is None:
                return None
            colp = Permutation(
                tuple(
                    bcol
                    for _, bcol in sorted(
                        (assign[b], b) for b in range(v)
                    )
                )
            )
            if equal(permute(A, rowp, colp), B):
                return rowp, colp
            return None
        for acol in range(v):
            if used[acol] or acol_sig[acol] != bcol_sig[depth]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"node budget {node_budget} exceeded")
            assign[depth] = acol
            used[acol] = True
            if prefix_ok(depth + 1):
                found = backtrack(depth + 1)
                if found is not None:
                    return found
            used[acol] = False
            assign[depth] = -1
        return None

    return backtrack(0)


def brute_width(M: GMatrix) -> int:
    """Exhaustive width oracle for orders <= 8: tries border arrangements and
    checks the permuted entries directly against the jacket pattern."""
    v = M.order
    if v > 8:
        raise MatrixError("brute_width is limited to order <= 8")
    if v % 2 != 0 or v < 2:
        raise MatrixError("jacket matrices have even order >= 2")
    n = v // 2

    def check(P: GMatrix, m, axis):
        kinds = _line_kinds(P, axis)
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
