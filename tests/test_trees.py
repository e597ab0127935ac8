"""Factor trees describe their matrices: every GMatrix.tree is None or expands
to the matrix, and a DftNode expands to the DFT table of its order, whose
tree is the node itself."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_gbh import gbh_trees
from test_transform import RINGS

from ght import (
    DftNode,
    GMatrix,
    Leaf,
    Permutation,
    Signal,
    b3,
    cyclotomic,
    dagger,
    dft_matrix,
    equal,
    fast_apply,
    ght,
    ight,
    jacketize_cbt,
    jacketize_dft,
    k2,
    k4,
    normalize,
    permute,
    prime_field,
    quadratic_field,
    complex_ring,
    star,
    tensor,
    TensorNode,
    RingError,
    verify_gbh,
    walsh,
)
from ght.catalog import QuadriphaseSequence, back_circulant, complex_rjt, from_token
from ght.fileio import load_matrix, matrix_from_json, matrix_to_json, save_matrix
from ght.matrix import tree_matches

TOKENS = [
    "walsh:1", "walsh:4", "cbt:1", "cbt:3", "dft:1", "dft:6", "dft:12", "dft:16",
    "dft:30", "k1", "k2:3", "k3", "k4", "k6:2", "family:2,0,0,0,0", "family:1,1,0,0,2",
    "family:0,0,1,3,0", "family:1,0,1,2,0",
]


def _library_matrices():
    """Matrices as the library returns them: catalog tokens, constructors
    over other rings, and what tensor, permute, star, normalize and the file
    loads make of them."""
    out = [from_token(t) for t in TOKENS]
    for ring in (complex_ring(), prime_field(61), quadratic_field(5)):
        out += [dft_matrix(v, ring) for v in (2, 4, 6, 12)]
    q4 = cyclotomic(4)
    out += [
        jacketize_dft(3, cyclotomic(6))[0],
        jacketize_cbt(2, q4)[0],
        dagger(b3(cyclotomic(3)), k2(2, cyclotomic(3))),
        complex_rjt(4, cyclotomic(8).root_of_unity(8)),
        back_circulant(QuadriphaseSequence((0, 0, 0, 2))),
    ]
    W, F = walsh(2), dft_matrix(6, cyclotomic(6))
    swap = Permutation((1, 0, 3, 2))
    out += [
        tensor(W, W), permute(W, swap, Permutation.identity(4)), star(W), star(F),
        normalize(F)[0], tensor(F, walsh(1, cyclotomic(6))),
    ]
    return out


@pytest.mark.parametrize("M", _library_matrices(), ids=lambda M: f"{M.ring!r}-{M.order}")
def test_library_trees_expand_to_their_matrices(tmp_path, M):
    assert M.tree is None or tree_matches(M.tree, M)
    path = tmp_path / "m.json"
    save_matrix(M, path)
    for N in (load_matrix(path), matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))):
        assert equal(N, M) and (N.tree is None) == (M.tree is None)
        assert N.tree is None or tree_matches(N.tree, N)


@pytest.mark.parametrize(
    "M",
    [
        walsh(3),
        permute(walsh(2), Permutation((1, 0, 3, 2)), Permutation((2, 0, 1, 3))),
        tensor(b3(cyclotomic(3)), k2(2, cyclotomic(3))),
        dft_matrix(60, cyclotomic(60)),
        dft_matrix(12, complex_ring()),
        jacketize_cbt(2, cyclotomic(4))[0],
    ],
    ids=lambda M: f"{M.ring!r}-{M.order}",
)
def test_star_keeps_a_tree_and_saves_tree_only(tmp_path, M):
    # (A (x) B)* = A* (x) B*, and a permuted matrix's star swaps its
    # permutations, so star(M) keeps M's tree starred
    S = star(M)
    assert S.tree is not None and tree_matches(S.tree, S)
    path = tmp_path / "s.json"
    save_matrix(S, path)
    assert "entries" not in json.loads(path.read_text())
    N = load_matrix(path)
    assert equal(N, S) and tree_matches(N.tree, N)


@st.composite
def given_trees(draw):
    """(L, N, changed): a library matrix L with a tree, and N, built by a
    constructor from L's entries, one of them multiplied by -1 when changed,
    with tree=L.tree."""
    ring = draw(st.sampled_from(RINGS))
    L = draw(gbh_trees(ring, 3, 48))
    assume(L.tree is not None)
    changed = draw(st.booleans())
    rows = L.rows()
    if changed:
        i, j = draw(st.integers(0, L.order - 1)), draw(st.integers(0, L.order - 1))
        rows[i][j] = -rows[i][j]
    if draw(st.booleans()):
        N = GMatrix.from_rows(ring, rows, tree=L.tree)
    else:
        a = np.empty((L.order, L.order), dtype=object)
        a[:] = rows
        N = GMatrix(ring, a, tree=L.tree)
    return L, N, changed


@settings(max_examples=80, deadline=None)
@given(given_trees(), st.data())
def test_constructors_keep_a_tree_iff_it_expands_to_the_entries(tmp_path_factory, case, data):
    L, N, changed = case
    ring, v = N.ring, N.order
    assert (N.tree is L.tree) == (not changed) and (N.tree is None) == changed
    assert equal(N, L) != changed
    x = Signal.from_ints(ring, data.draw(st.lists(st.integers(-9, 9), min_size=v, max_size=v)))
    y = ght(N, x)
    assert fast_apply(N.as_tree(), x)[0] == y
    # ight is v^-1 N* y, whichever route it takes
    v_inv = ring.int_inverse(v)
    assert ight(N, y) == Signal(ring, tuple(v_inv * e for e in ght(star(N), y).elements))
    if v > 1 and verify_gbh(N).is_gbh:
        assert ight(N, y) == x
    path = tmp_path_factory.getbasetemp() / "given-tree.json"
    save_matrix(N, path)
    assert ("entries" in json.loads(path.read_text())) == changed
    M = load_matrix(path)
    assert equal(M, N) and (M.tree is None) == changed


def _dropped(X, tree, tmp_path):
    """The matrices that GMatrix and from_rows build from X's entries with
    tree, after checking that both dropped the tree and that each saves with
    entries and reloads equal to X."""
    rows = X.rows()
    out = [GMatrix.from_rows(X.ring, rows, tree=tree), GMatrix(X.ring, np.array(rows, dtype=object), tree=tree)]
    for M in out:
        assert M.tree is None
        path = tmp_path / "m.json"
        save_matrix(M, path)
        assert "entries" in json.loads(path.read_text()) and equal(load_matrix(path), X)
    return out


def test_a_dft_node_whose_tree_is_not_its_table_is_dropped(tmp_path):
    # a DftNode is its generator and expands to the DFT of its order: a tree
    # left over from the DFT does not describe a table with one entry
    # changed, which is not GBH
    ring = cyclotomic(6)
    rows = dft_matrix(6, ring).rows()
    rows[1][2] = rows[1][3]
    bad = GMatrix.from_rows(ring, rows)
    T = tensor(walsh(1, ring), bad)
    assert GMatrix.from_rows(ring, T.rows(), tree=T.tree).tree is T.tree
    stale = TensorNode(Leaf(walsh(1, ring)), DftNode(ring, 6))
    assert not tree_matches(stale, T)
    for M in _dropped(T, stale, tmp_path):
        rep = verify_gbh(M)
        assert not rep.is_gbh and rep.failures and rep.method == "numeric-lane"


@pytest.mark.parametrize("X", [walsh(3, cyclotomic(4)), k4(cyclotomic(4))], ids=["walsh3", "k4"])
def test_a_dft_node_whose_table_is_no_dft_is_dropped(X, tmp_path):
    # Q(zeta_4) has no root of order 8, so the generator dft:8 has no table:
    # it matches no matrix, alone or under a tensor node
    node = DftNode(X.ring, 8)
    with pytest.raises(RingError):
        node.expand()
    assert not tree_matches(node, X)
    assert not tree_matches(TensorNode(Leaf(walsh(1, X.ring)), node), tensor(walsh(1, X.ring), X))
    _dropped(X, node, tmp_path)
    F = dft_matrix(8, cyclotomic(8))
    assert tree_matches(F.tree, F) and F.tree.expand() is F
