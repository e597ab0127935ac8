"""verify-mix: each op runs `verify_gbh` on a matrix no other op sees.

An op takes a catalog GBH matrix, applies a seeded random row and column
permutation, and verifies the result. A round has 34 ops: every source at
least once and the cheap ones up to four times, so that a run of four rounds
has 136 ops and p50 and p90 fall inside a cost class rather than on the edge
between two. Four ops in each round are negatives: one entry is
multiplied by a root of unity of the entry group, which breaks M M* = v I but
keeps the entry-group order. Two negatives keep the factor tree of the
permuted matrix, which then contradicts its entries; two drop it. A verifier
that trusts a stale tree fails the first kind.

gbh, the matrix products and ring arithmetic do nearly all the work. No two
ops share a matrix, so a result cache cannot help. `walsh` stops at 2^9
because `verify_gbh(walsh(10))` takes about 15 s per op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

NAME = "verify-mix"
ROUNDS = 4  # per run: at least 100 ops, so that ten lie beyond p90
KNOWN_DEFECTS = {}


@dataclass
class Source:
    matrix: object
    w: int | None  # entry-group order the construction implies
    zeta: object  # root of unity used to plant a negative; None on the +-1 lane
    slots: int  # ops per round
    int_entries: object = None  # +-1 entries as int8, for the +-1 lane


def _sylvester(t):
    h = np.array([[1]], dtype=np.int8)
    for _ in range(t):
        h = np.kron(h, np.array([[1, 1], [1, -1]], dtype=np.int8))
    return h


def setup(g, seed, workdir):
    ring, cat, gbh = g.ring, g.catalog, g.gbh
    q4 = ring.cyclotomic(4)
    gf25 = ring.quadratic_field(5)
    cplx = ring.complex_ring()
    sources = {}
    for t, slots in zip(range(6, 10), (4, 4, 2, 1)):
        sources[f"walsh{t}"] = Source(cat.walsh(t), 2, None, slots, int_entries=_sylvester(t))
    for t, slots in zip(range(3, 7), (4, 2, 1, 1)):
        sources[f"cbt{t}"] = Source(cat.cbt(t, q4), 4, q4.root_of_unity(4), slots)
    for v, slots in zip((8, 12, 16, 24), (4, 3, 1, 1)):
        r = ring.cyclotomic(v)
        sources[f"dft{v}"] = Source(gbh.dft_matrix(v, r), v, r.root_of_unity(v), slots)
    gf97 = ring.prime_field(97)
    sources["dft32-gf97"] = Source(gbh.dft_matrix(32, gf97), 32, gf97.root_of_unity(32), 1)
    sources["k3k3-gf25"] = Source(
        g.matrix.tensor(cat.k3(gf25), cat.k3(gf25)), 6, gf25.root_of_unity(6), 1
    )
    sources["dft16-complex"] = Source(gbh.dft_matrix(16, cplx), 16, cplx.root_of_unity(16), 3)
    q6 = ring.cyclotomic(6)
    # K2(2) has entries 2 and 1/2 of infinite order, so w is unknown (None)
    sources["family-11132"] = Source(
        cat.family(1, 1, 1, 3, 2, q6)[0], None, q6.from_int(-1), 1
    )
    return {"g": g, "sources": sources}


def round_plan(state, seed, r):
    """Plain, seeded descriptors of round r: (kind, source, rowp, colp, pos)."""
    rng = random.Random(f"{NAME}:{seed}:{r}")
    sources = state["sources"]
    slots = [name for name, s in sources.items() for _ in range(s.slots)]
    rng.shuffle(slots)
    treed = [i for i, n in enumerate(slots) if sources[n].matrix.tree is not None]
    keep = rng.sample(treed, 2)
    drop = rng.sample([i for i in range(len(slots)) if i not in keep], 2)
    plan = []
    for i, name in enumerate(slots):
        v = sources[name].matrix.order
        rowp = tuple(rng.sample(range(v), v))
        colp = tuple(rng.sample(range(v), v))
        kind = "non-gbh-keep-tree" if i in keep else "non-gbh-drop-tree" if i in drop else "gbh"
        pos = (rng.randrange(v), rng.randrange(v)) if kind != "gbh" else None
        plan.append((kind, name, rowp, colp, pos))
    return plan


def _negative(g, src, P, rowp, colp, pos, keep_tree):
    """P with entry `pos` multiplied by src.zeta (negated on the +-1 lane)."""
    i, j = pos
    tree = P.tree if keep_tree else None
    if src.int_entries is not None:
        # permute's contract: entry (i, j) is M[rowp^-1(i), colp^-1(j)]
        a = src.int_entries[np.ix_(np.argsort(rowp), np.argsort(colp))].copy()
        a[i, j] = -a[i, j]
        return g.matrix.GMatrix(P.ring, a, tree=tree)
    rows = P.rows()
    rows[i][j] = rows[i][j] * src.zeta
    return g.matrix.GMatrix.from_rows(P.ring, rows, tree=tree)


def prepare(state, desc):
    kind, name, rowp, colp, pos = desc
    g = state["g"]
    src = state["sources"][name]
    Perm = g.matrix.Permutation
    P = g.matrix.permute(src.matrix, Perm(rowp), Perm(colp))
    if kind != "gbh":
        P = _negative(g, src, P, rowp, colp, pos, kind.endswith("keep-tree"))
    expect = (kind == "gbh", src.matrix.order, src.w)
    return (lambda: g.gbh.verify_gbh(P)), (lambda rep: check_report(rep, *expect))


def check_report(rep, is_gbh, v, w):
    """Oracle: None when the report matches the construction, else why not."""
    got = (rep.is_gbh, rep.v, rep.w)
    if got != (is_gbh, v, w):
        return f"report (is_gbh, v, w) = {got}, want {(is_gbh, v, w)}"
    return None
