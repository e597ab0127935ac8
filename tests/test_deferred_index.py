"""Pending index arrays: a matrix built from its factors keeps its units at
once and writes its v x v index the first time something reads it."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from test_transform import RINGS, walks

from ght import (
    GMatrix,
    Permutation,
    PermutedNode,
    Signal,
    cyclotomic,
    dft_matrix,
    equal,
    fast_apply,
    ight,
    k3,
    normalize,
    permute,
    quadratic_field,
    rationals,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght.catalog import family, from_token
from ght.fileio import load_matrix, matrix_from_json, matrix_to_json, save_matrix


def _pending(M):
    return M._pending is not None


def test_walsh12_is_walked_inverted_and_verified_without_its_index():
    # the 16 MiB int8 index of walsh(12) is read by none of these, so the
    # traced peak stays far below it
    q = rationals()
    x = Signal.from_ints(q, [(7 * k) % 23 - 11 for k in range(4096)])
    tracemalloc.start()
    try:
        M = walsh(12)
        y, _ = fast_apply(M.tree, x)
        z = ight(M, y)
        report = verify_gbh(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z == x and ight(M, fast_apply(M.tree, z)[0]) == x
    assert report.method == "tree" and report.is_gbh and report.w == 2
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert _pending(M) and _pending(star(M))


def test_which_constructors_defer(tmp_path):
    q = rationals()
    W = walsh(5)
    T = tensor(k3(cyclotomic(6)), k3(cyclotomic(6)))
    p = Permutation(tuple(reversed(range(32))))
    assert _pending(W) and _pending(T) and _pending(W.tree.expand()) and _pending(star(W))
    assert _pending(PermutedNode(W.tree, p, p).expand()) and _pending(star(PermutedNode(W.tree, p, p).expand()))
    path = tmp_path / "walsh5.json"
    save_matrix(W, path)
    assert _pending(W) and _pending(load_matrix(path))
    # operations that start from a table write their index at once; permute
    # makes a table, and writes the index of a pending matrix to gather it
    assert not _pending(permute(walsh(5), p, p)) and _pending(permute(walsh(5), p, p).tree.expand())
    tabled = GMatrix.from_rows(q, W.rows())
    assert not _pending(tabled) and not _pending(permute(tabled, p, p)) and not _pending(star(tabled))
    assert not _pending(normalize(walsh(5))[0]) and not _pending(matrix_from_json(matrix_to_json(W)))
    assert not _pending(dft_matrix(12, cyclotomic(12)))
    # an index once written is kept, read-only
    idx = W.idx
    assert not _pending(W) and W.idx is idx and not idx.flags.writeable


def _tabled(M):
    """M with its units, index array and tree, the index written now."""
    return GMatrix._table(M.ring, M.units, M.idx, M.tree)


def _agree(build):
    """build() and its tabled twin give the same results under every
    operation; each operation takes a fresh matrix, pending where build()
    defers."""
    T = _tabled(build())
    v = T.order
    p = Permutation(tuple((5 * i + 1) % v for i in range(v)) if v % 5 else tuple(reversed(range(v))))
    assert build().rows() == T.rows() and equal(build(), T)
    assert star(build()).rows() == star(T).rows()
    assert permute(build(), p, p).rows() == permute(T, p, p).rows()
    N, rows, cols = normalize(build())
    N_t, rows_t, cols_t = normalize(T)
    assert N.rows() == N_t.rows() and (rows, cols) == (rows_t, cols_t)
    data = json.loads(json.dumps(matrix_to_json(build())))
    assert data == json.loads(json.dumps(matrix_to_json(T)))
    assert matrix_from_json(data).rows() == T.rows()
    assert v < 2 or verify_gbh(build()) == verify_gbh(T)
    # a star that outlives its pending matrix writes its index alone
    S = star(build())
    assert S.rows() == star(T).rows() and equal(star(S), T)


@settings(max_examples=60)
@given(walks())
def test_deferred_and_tabled_expansions_agree_on_random_trees(case):
    tree, _ = case
    _agree(tree.expand)


_AFFINE_64 = Permutation(tuple((7 * i + 3) % 64 for i in range(64)))
_CATALOG = {
    **{f"walsh3-{R.spec.kind}": (lambda R=R: walsh(3, R)) for R in RINGS},
    "family:1,1,1,3,2": lambda: from_token("family:1,1,1,3,2"),
    "family-gf25": lambda: family(1, 1, 0, None, 2, quadratic_field(5))[0],
    "k3k3-gf25": lambda: tensor(k3(quadratic_field(5)), k3(quadratic_field(5))),
    "dft12-walsh1": lambda: tensor(dft_matrix(12, cyclotomic(12)), walsh(1, cyclotomic(12))),
    "walsh6-permuted": lambda: PermutedNode(walsh(6).tree, _AFFINE_64, _AFFINE_64).expand(),
}


@pytest.mark.parametrize("name", _CATALOG)
def test_deferred_and_tabled_catalog_matrices_agree(name):
    assert _pending(_CATALOG[name]())
    _agree(_CATALOG[name])
