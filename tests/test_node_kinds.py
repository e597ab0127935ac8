"""A node kind is one class: a kind defined here, outside the library, walks,
stars, expands, verifies and round-trips through a file with no edit to
ght; and a DFT's node and its matrix form no reference cycle."""

import gc
import weakref
from dataclasses import dataclass
from functools import cached_property
from unittest import mock

import pytest

from ght import (
    GMatrix,
    Leaf,
    MatrixError,
    Permutation,
    Signal,
    cyclotomic,
    dft_matrix,
    equal,
    fast_apply,
    ght,
    ight,
    k4,
    permute,
    rationals,
    scalar_mul,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght import fileio, transform
from ght.fileio import load_matrix, save_matrix
from ght.matrix import FactorTree, tree_matches
from ght.ring import RingElement


@dataclass(frozen=True)
class ScaledNode(FactorTree):
    """c A for a unit c of A's ring. Its walk is the 1 x 1 leaf [c] in front
    of A's factors, and it proves M M* = v I by A, as (c A)(c A)* = A A*;
    never as a generator, since c need not be a power of A's root."""

    c: RingElement
    child: FactorTree
    kind = "scaled"

    @property
    def order(self):
        return self.child.order

    def expand(self):
        M = scalar_mul(self.c, self.child.expand())
        return GMatrix._table(M.ring, M.units, M.idx, self)

    def star(self):
        return ScaledNode(self.c.inverse(), self.child.star())

    @cached_property
    def factors(self):
        return (Leaf(GMatrix.from_rows(self.c.ring, [[self.c]])),) + self.child.factors

    def gbh_proof(self, leaf_passes):
        return self.child.gbh_proof(leaf_passes) and "tree"

    def to_json(self, write_leaf):
        return {"kind": self.kind, "c": self.c.ring.encode(self.c), "child": self.child.to_json(write_leaf)}

    @classmethod
    def from_json(cls, data, read):
        return cls(read.ring.decode(data["c"]), read.node(data, "child"))


def _scaled_cases():
    """Matrices whose tree is a ScaledNode over a tensor chain, a DFT node
    (prime power and Good-Thomas), a permuted leaf and a one-leaf tree, or
    sits under a tensor node; c is -1, or a root of unity of the DFT's ring."""
    K = k4()
    cases = [
        (walsh(3), -1),
        (dft_matrix(8, cyclotomic(8)), 8),
        (dft_matrix(12, cyclotomic(12)), 4),
        (permute(K, Permutation((1, 3, 0, 2, 5, 7, 4, 6)), Permutation.from_cycle(8, (0, 5, 2))), -1),
        (GMatrix.from_rows(rationals(), [[1, 1], [1, -1]]), -1),
    ]
    out = []
    for A, c in cases:
        c = A.ring.from_int(-1) if c == -1 else A.ring.root_of_unity(c)
        out.append(ScaledNode(c, A.as_tree()).expand())
    out.append(tensor(out[0], walsh(1)))
    return out


@pytest.mark.parametrize("M", _scaled_cases(), ids=lambda M: f"order{M.order}")
def test_a_node_kind_defined_outside_the_library_walks_stars_and_verifies(M):
    ring, tree = M.ring, M.tree
    plain = GMatrix._table(ring, M.units, M.idx)
    assert tree_matches(tree, M) and equal(tree.expand(), plain)
    x = Signal.from_ints(ring, [(7 * k) % 11 - 5 for k in range(M.order)])
    y = ght(plain, x)
    # WALK_MIN 1 first: a DFT node builds its Good-Thomas tree on its first
    # walk, under the WALK_MIN of that walk, and keeps it
    for walk_min in (1, transform.WALK_MIN):
        with mock.patch.object(transform, "WALK_MIN", walk_min):
            assert ght(M, x) == y and ight(M, y) == x
    assert fast_apply(tree, x)[0] == y
    S = star(M)
    assert tree_matches(S.tree, S) and equal(S, star(plain))
    report, reference = verify_gbh(M), verify_gbh(plain)
    # the node proves by its child: "tree" when each leaf that the proof
    # passes by its own product is smaller than M (a DFT passes none), else
    # M's own product, as a leaf of M's order would cost as much
    proved = []
    tree.gbh_proof(lambda L: proved.append(L.order) or True)
    assert report.method == ("tree" if max(proved, default=0) < M.order else "numeric-lane")
    assert (report.is_gbh, report.v, report.w, report.failures) == (True, M.order, reference.w, [])


@pytest.mark.parametrize("M", _scaled_cases(), ids=lambda M: f"order{M.order}")
def test_a_node_kind_defined_outside_the_library_round_trips(tmp_path, monkeypatch, M):
    path = tmp_path / "m.json"
    save_matrix(M, path)
    assert "scaled" in path.read_text()
    with pytest.raises(MatrixError, match="unknown tree node kind 'scaled'"):
        load_matrix(path)
    monkeypatch.setitem(fileio.NODE_KINDS, ScaledNode.kind, ScaledNode)
    L = load_matrix(path)
    assert equal(L, M) and tree_matches(L.tree, L)
    save_matrix(L, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert verify_gbh(L).is_gbh


@pytest.mark.parametrize("v", [64, 12])
def test_a_dropped_dft_is_freed_without_the_collector(v):
    # the node holds its tree-less power table and its matrix by a weak
    # reference, so that node, matrix and starred matrix form no cycle: a
    # prime-power and a composite DFT go at del, also once walked, starred
    # and verified
    ring = cyclotomic(v)
    gc.collect()
    gc.disable()
    try:
        F = dft_matrix(v, ring)
        x = Signal.from_ints(ring, range(v))
        assert ight(F, ght(F, x)) == x and fast_apply(F.tree, x)[0] == ght(F, x)
        assert verify_gbh(F).method == "generator" and star(star(F)) is F
        assert F.tree.expand() is F and F.tree.table.idx is F.idx
        refs = [weakref.ref(F), weakref.ref(F.tree), weakref.ref(star(F)), weakref.ref(F.tree.table)]
        del F
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
