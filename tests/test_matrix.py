"""Matrix layer: star, tensor, permutations, normalisation, file round-trips."""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import ght
from ght import (
    GMatrix,
    MatrixError,
    Permutation,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    mat_mul,
    normalize,
    permute,
    prime_field,
    quadratic_field,
    rationals,
    scalar_mul,
    star,
    tensor,
    verify_gbh,
    walsh,
    k1,
    k3,
    k4,
)
from ght.fileio import save_matrix


def test_equal_is_false_across_rings_and_orders():
    # entrywise equality holds only between matrices of one ring and order
    W = walsh(2)
    assert equal(W, walsh(2))
    assert not equal(W, walsh(3)) and not equal(walsh(3), W)
    assert not equal(W, walsh(2, cyclotomic(4))) and not equal(walsh(2, prime_field(5)), W)


def test_permutation_validation():
    with pytest.raises(MatrixError):
        Permutation((0, 0, 1))
    p = Permutation((2, 0, 1))
    assert p.inverse().image == (1, 2, 0)
    assert Permutation.identity(3).is_identity()


def test_from_cycle():
    p = Permutation.from_cycle(6, (1, 4, 3, 2))
    assert p.image == (0, 4, 1, 2, 3, 5)


def test_unit_entry_validation():
    ring = rationals()
    with pytest.raises(MatrixError):
        GMatrix.from_rows(ring, [[1, 0], [1, 1]])


def test_star_is_involution():
    for M in (k1(), k3(cyclotomic(6)), k4()):
        assert equal(star(star(M)), M)


def test_star_is_kept_on_the_matrix():
    for M in (k1(), k3(cyclotomic(6)), k4(), walsh(3)):
        S = star(M)
        assert star(M) is S and np.shares_memory(S.idx, M.idx)  # M's index array, transposed
        assert equal(star(S), M) and star(S) is star(S)


def test_a_matrix_and_its_star_are_freed_without_the_collector():
    # M keeps M* and M* keeps M by a weak reference: star(star(M)) is M, and
    # reference counting alone frees M; a star whose matrix is gone stars to
    # an equal matrix again, and frees the new pair the same way; a tabled
    # matrix, and a tensor product whose index, and its star's, is pending
    # until read, the star's read after its matrix is gone
    gc.disable()
    try:
        for build, pending in ((k4, False), (lambda: walsh(2), True)):
            M = build()
            S, alive = star(M), weakref.ref(M)
            assert star(S) is M and _pending(M) == _pending(S) == pending
            del M
            assert alive() is None
            assert equal(S, star(build())) and not _pending(S)
            N = star(S)
            assert equal(N, build()) and star(N) is S and star(S) is N
            alive = weakref.ref(S)
            del S, N
            assert alive() is None
    finally:
        gc.enable()


def _pending(M):
    """Whether M's index array is still to be written."""
    return M._pending is not None


def test_star_s1_fixed():
    s1 = k1()
    assert equal(star(s1), s1)


def test_star_of_dft_is_inverse_powers():
    from ght import dft_matrix

    ring = cyclotomic(4)
    F = dft_matrix(4, ring)
    Fs = star(F)
    w = ring.root_of_unity(4)
    for j in range(4):
        for k in range(4):
            assert Fs.entry(j, k) == w ** (-(j * k))


def test_star_distributes_over_tensor():
    A = k3(cyclotomic(12))
    B = k4(cyclotomic(12))
    assert equal(star(tensor(A, B)), tensor(star(A), star(B)))


def test_tensor_order_and_walsh():
    s1 = k1()
    s2 = tensor(s1, s1)
    assert s2.order == 4
    assert equal(s2, walsh(2))
    assert equal(tensor(walsh(2), s1), walsh(3))


def test_tensor_associativity_entrywise():
    ring = cyclotomic(12)
    A, B, C = k1(ring), k3(ring), k4(ring)
    assert equal(tensor(tensor(A, B), C), tensor(A, tensor(B, C)))


def test_tensor_ring_mismatch():
    with pytest.raises(MatrixError):
        tensor(k1(rationals()), k4(cyclotomic(4)))


def test_permute_roundtrip():
    M = k4()
    rp = Permutation((3, 0, 6, 1, 7, 2, 5, 4))
    cp = Permutation((1, 2, 3, 4, 5, 6, 7, 0))
    P = permute(M, rp, cp)
    assert equal(permute(P, rp.inverse(), cp.inverse()), M)
    assert equal(permute(M, Permutation.identity(8), Permutation.identity(8)), M)


def test_permute_semantics():
    M = k4()
    rp = Permutation((1, 0, 2, 3, 4, 5, 6, 7))
    P = permute(M, rp, Permutation.identity(8))
    assert P.entry(0, 3) == M.entry(1, 3)
    assert P.entry(1, 3) == M.entry(0, 3)


def test_a_permutation_called_on_i_is_its_image_of_i():
    # permute places entry (i, j) of M at (p(i), q(j))
    M = k4()
    p, q = Permutation((3, 0, 6, 1, 7, 2, 5, 4)), Permutation.from_cycle(8, [0, 5, 2])
    assert [p(i) for i in range(8)] == list(p.image) and [q(i) for i in range(8)] == list(q.image)
    P = permute(M, p, q)
    assert all(P.entry(p(i), q(j)) == M.entry(i, j) for i in range(8) for j in range(8))


def test_normalize_identity_on_normalised():
    M = k4()
    N, rs, cs = normalize(M)
    assert equal(N, M)
    one = M.ring.one()
    assert all(r == one for r in rs) and all(c == one for c in cs)


def test_normalize_reconstruction():
    ring = cyclotomic(4)
    i = ring.root_of_unity(4)
    M = GMatrix.from_rows(ring, [[i, -i], [i * 1, i.inverse()]])
    N, rs, cs = normalize(M)
    assert N.is_normalised()
    for r in range(2):
        for c in range(2):
            assert M.entry(r, c) == rs[r] * N.entry(r, c) * cs[c]


def test_normalize_preserves_gbh():
    ring = cyclotomic(4)
    i = ring.root_of_unity(4)
    M = GMatrix.from_rows(ring, [[i, i], [-i, i]])
    assert verify_gbh(M).is_gbh
    N, _, _ = normalize(M)
    assert verify_gbh(N).is_gbh


def test_mat_mul_s1():
    s1 = k1()
    P = mat_mul(s1, star(s1))
    two, zero = s1.ring.from_int(2), s1.ring.zero()
    assert all(P.entry(i, j) == (two if i == j else zero) for i in range(2) for j in range(2))


def test_scalar_mul_one():
    M = k4()
    assert equal(scalar_mul(1, M), M)


def test_int_lane_matches_object_lane():
    # the same Sylvester matrix over Q and over Q(zeta_4)
    a = walsh(3)
    b = walsh(3, cyclotomic(4))
    for i in range(8):
        for j in range(8):
            fa = a.entry(i, j).payload
            assert b.entry(i, j) == b.ring.from_int(int(fa))


def test_tree_expansion_matches_entries():
    W = walsh(4)
    assert equal(W.tree.expand(), W)
    from ght import jacketize_cbt

    J, _ = jacketize_cbt(3)
    assert equal(J.tree.expand(), J)


def _sylvester(t):
    h = np.array([[1]], dtype=np.int8)
    for _ in range(t):
        h = np.kron(h, np.array([[1, 1], [1, -1]], dtype=np.int8))
    return h


@pytest.mark.parametrize(
    "a",
    [
        _sylvester(9),
        np.random.default_rng(3).choice([-7, -1, 2, 5, 2**62, -(2**62)], size=(300, 300)),
        np.random.default_rng(4).integers(1, 60000, size=(260, 260), dtype=np.uint16),
    ],
)
def test_integer_array_entries_match_np_unique(a):
    # the positions are found a block of rows at a time (more than one here)
    values, inverse = np.unique(a, return_inverse=True)
    M = GMatrix(rationals(), a)
    assert [int(u.payload) for u in M.units] == values.tolist()
    assert np.array_equal(M.idx, inverse.reshape(a.shape))


def test_wide_product_in_row_blocks_matches_numpy():
    # a 512 x 512 product takes its rows in blocks; every entry is checked
    a = _sylvester(9)
    a[5, 300] = -a[5, 300]
    M = GMatrix(rationals(), a)
    P = mat_mul(M, star(M))
    want = a.astype(np.int64) @ a.T.astype(np.int64)
    assert np.array_equal(np.array([[int(e.payload) for e in row] for row in P.rows()]), want)
    rep = verify_gbh(M)
    bad = want != 512 * np.eye(512, dtype=np.int64)
    assert not rep.is_gbh
    assert rep.failures == [tuple(p) for p in np.argwhere(bad).tolist()]


def test_large_tables_are_written_in_bounded_memory():
    # numpy temporaries of a 512 x 512 +-1 table (256 KB as int8): building
    # it from integers took a 6.8 MB peak and verifying it without a tree 5 MB
    a = _sylvester(9)
    a[0, 0] = -1
    verify_gbh(GMatrix(rationals(), a))  # one-off imports and caches
    tracemalloc.start()
    try:
        M = GMatrix(rationals(), a)
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert not verify_gbh(M).is_gbh
        verify = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build < 2 * 2**20
    assert verify < 4 * 2**20


# one build of order 4096 in a fresh process, with its index, which is
# pending until read: its time, best of three, and the growth of the peak RSS
# (ru_maxrss, KB) over its first run
_BUILD_4096 = """
import gc, json, resource, sys, time
from ght import tensor, walsh
from ght.fileio import load_matrix
w1, w11 = walsh(1), walsh(11)
w11.idx
build = {
    "walsh12": lambda: walsh(12),
    "load": lambda: load_matrix(sys.argv[2]),
    "w1-w11": lambda: tensor(w1, w11),
    "w11-w1": lambda: tensor(w11, w1),
}[sys.argv[1]]
times = []
for run in range(3):
    gc.collect()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    M = build()
    M.idx
    times.append(time.perf_counter() - start)
    if run == 0:
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak
    assert M.order == 4096
    del M
print(json.dumps({"s": min(times), "grown_mb": grown / 1024}))
"""


@pytest.mark.parametrize(
    "build, bound", [("walsh12", 0.12), ("load", 0.12), ("w1-w11", 0.25), ("w11-w1", 0.25)]
)
def test_order_4096_builds_are_fast_and_write_little_besides_the_index(tmp_path, build, bound):
    # walsh(12) took 100 ms, and so did loading its 2 KB tree-only file, while
    # the index was gathered once per entry of the smaller factor, down a
    # left-deep chain; block writes down a balanced chain take 10-15 ms. The
    # peak RSS grows by the 16 MB index and less than 4 MB more
    path = tmp_path / "w12.json"
    save_matrix(walsh(12), path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _BUILD_4096, build, str(path)], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["s"] < bound and got["grown_mb"] <= 20, got


def _copyable_matrices():
    gf25 = quadratic_field(5)
    p = Permutation((3, 0, 6, 1, 7, 2, 5, 4))
    return {
        "walsh2": walsh(2),
        "cbt3": cbt(3),
        "k4": k4(),
        "permuted-walsh3": permute(walsh(3), p, p.inverse()),
        "k3k3-gf25": tensor(k3(gf25), k3(gf25)),
        "dft6-q6": dft_matrix(6, cyclotomic(6)),
        "dft6-gf7": dft_matrix(6, prime_field(7)),
        "dft8-complex": dft_matrix(8, complex_ring()),
    }


@pytest.mark.parametrize("name", list(_copyable_matrices()))
def test_matrices_copy_and_pickle_over_the_live_ring(name):
    # copy and deepcopy raised "GMatrix is immutable", and pickle failed on
    # a pending index's closure and on a DFT node's weak reference to its
    # expansion: each rebuilds the unit table and the tree over the live
    # ring, and the tree still expands to the matrix; each copy starts
    # from a fresh matrix, whose index may be pending
    for copier in (copy.copy, copy.deepcopy, lambda M: pickle.loads(pickle.dumps(M))):
        M = _copyable_matrices()[name]
        c = copier(M)
        assert c is not M and c.ring is M.ring and equal(c, M)
        assert all(u.ring is M.ring for u in c.units)
        assert (c.tree is None) == (M.tree is None)
        assert c.tree is None or equal(c.tree.expand(), c)
