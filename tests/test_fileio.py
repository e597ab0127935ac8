"""JSON round-trips for matrices and signals across all backends."""

import hashlib
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from test_transform import walks

from ght import (
    DftNode,
    GMatrix,
    MatrixError,
    Signal,
    b3,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    fast_apply,
    jacketize_cbt,
    k2,
    k4,
    prime_field,
    quadratic_field,
    rationals,
    star,
    tensor,
    verify_gbh,
    walsh,
)
from ght import fileio, gbh
from ght.catalog import from_token
from ght.cli import main, parse_ring_spec
from ght.fileio import (
    load_matrix,
    load_signal,
    matrix_from_json,
    matrix_to_json,
    ring_spec_from_json,
    ring_spec_to_json,
    save_matrix,
    save_signal,
    signal_from_json,
    signal_to_json,
)
from ght.ring import RationalsContext, RingError


@pytest.mark.parametrize(
    "mk",
    [
        lambda: walsh(3),
        lambda: k2(2),
        lambda: cbt(2),
        lambda: dft_matrix(5, cyclotomic(5)),
        lambda: b3(quadratic_field(5)),
        lambda: b3(cyclotomic(3)),
    ],
)
def test_matrix_roundtrip(tmp_path, mk):
    M = mk()
    path = tmp_path / "m.json"
    save_matrix(M, path)
    N = load_matrix(path)
    assert equal(M, N)
    assert N.ring.spec == M.ring.spec


def test_matrix_roundtrip_complex(tmp_path):
    M = dft_matrix(4, complex_ring())
    path = tmp_path / "m.json"
    save_matrix(M, path)
    N = load_matrix(path)
    assert equal(M, N)


def test_tree_roundtrip(tmp_path):
    J, _ = jacketize_cbt(3)
    path = tmp_path / "j.json"
    save_matrix(J, path)
    K = load_matrix(path)
    assert K.tree is not None
    assert equal(K.tree.expand(), J)


def test_tensor_tree_roundtrip(tmp_path):
    W = walsh(4)
    path = tmp_path / "w.json"
    save_matrix(W, path)
    V = load_matrix(path)
    assert V.tree is not None and V.tree.order == 16
    assert equal(V.tree.expand(), W)


@pytest.mark.parametrize(
    "ring", [rationals(), cyclotomic(6), quadratic_field(5)]
)
def test_signal_roundtrip(tmp_path, ring):
    x = Signal(
        ring,
        (ring.from_int(3), ring.root_of_unity(2), ring.int_inverse(2) if ring.characteristic() != 2 else ring.one()),
    )
    path = tmp_path / "x.json"
    save_signal(x, path)
    assert load_signal(path) == x


def test_ring_spec_json_identity():
    for ring in (rationals(), cyclotomic(12), quadratic_field(5), complex_ring()):
        spec = ring.spec
        assert ring_spec_from_json(ring_spec_to_json(spec)) == spec


def test_matrix_entries_decode_once_per_distinct_encoding(monkeypatch):
    decoded = []
    decode = RationalsContext.decode
    monkeypatch.setattr(
        RationalsContext, "decode", lambda ring, e: decoded.append(e) or decode(ring, e)
    )
    data = matrix_to_json(walsh(8), with_tree=False)
    M = matrix_from_json(data)
    assert sorted(decoded) == ["-1/1", "1/1"] and equal(M, walsh(8))
    # "2/4" and "1/2" are one unit; 1 and "1" are decoded apart
    data = {"ring": {"kind": "rationals"}, "order": 2, "entries": [[1, "1"], ["2/4", "1/2"]]}
    decoded.clear()
    M = matrix_from_json(data)
    assert sorted(map(str, decoded)) == ["1", "1", "1/2", "2/4"]
    assert len(M.units) == 2 and M.idx.tolist() == [[0, 0], [1, 1]]


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MatrixError):
        load_matrix(path)
    with pytest.raises(MatrixError):
        load_signal(path)


def test_deeply_nested_json_is_malformed(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(MatrixError, match="nested too deeply"):
        load_matrix(path)
    with pytest.raises(MatrixError, match="nested too deeply"):
        load_signal(path)


def test_wrong_shape_rejected(tmp_path):
    data = matrix_to_json(walsh(1))
    data["order"] = 3
    with pytest.raises(MatrixError):
        matrix_from_json(data)


def test_wrong_length_rejected():
    x = Signal.from_ints(rationals(), [1, 2])
    data = signal_to_json(x)
    data["length"] = 5
    with pytest.raises(MatrixError):
        signal_from_json(data)


def test_bad_ring_spec_rejected():
    with pytest.raises(RingError):
        ring_spec_from_json({"w": 4})


def test_file_is_plain_json(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(k4(), path)
    data = json.loads(path.read_text())
    assert data["order"] == 8
    assert data["ring"]["kind"] == "cyclotomic-rationals"


@settings(max_examples=100)
@given(walks())
def test_json_round_trip_on_random_trees(tmp_path_factory, case):
    """What the encoders write, the decoders read back unchanged, on all five
    backends, in the form with entries and in the tree-only file form; a
    strict decoder must not reject an encoder's output."""
    tree, x = case
    E = tree.expand()
    M = GMatrix._table(E.ring, E.units, E.idx, tree)  # a tree that E vouches for
    path = tmp_path_factory.getbasetemp() / "random-tree.json"
    save_matrix(M, path)
    v = M.order
    for N in (matrix_from_json(json.loads(json.dumps(matrix_to_json(M)))), load_matrix(path)):
        assert N.ring.spec == M.ring.spec
        assert all(N.entry(i, j) == M.entry(i, j) for i in range(v) for j in range(v))
        assert N.tree is not None and equal(N.tree.expand(), M)
    assert signal_from_json(json.loads(json.dumps(signal_to_json(x)))) == x


@settings(max_examples=50)
@given(walks())
def test_lane_form_signals_save_as_their_elements(tmp_path_factory, case):
    # a transform's output is saved with the bytes of a twin built from
    # fresh element objects, which the writer encodes one entry at a time
    tree, x = case
    y, _ = fast_apply(tree, x)
    twin = Signal(y.ring, tuple(y.ring.element(e.payload) for e in y.elements))
    base = tmp_path_factory.getbasetemp()
    save_signal(y, base / "lane.json")
    save_signal(twin, base / "twin.json")
    assert (base / "lane.json").read_bytes() == (base / "twin.json").read_bytes()
    assert load_signal(base / "lane.json") == y


def test_each_distinct_signal_element_is_encoded_once(monkeypatch):
    M = walsh(10)
    y, _ = fast_apply(M.tree, Signal.from_ints(M.ring, [k % 3 for k in range(M.order)]))
    encoded = []
    encode = RationalsContext.encode
    monkeypatch.setattr(RationalsContext, "encode", lambda r, e: encoded.append(1) or encode(r, e))
    data = signal_to_json(y)
    assert len(encoded) == len({e.payload for e in y.elements}) < M.order
    assert data["elements"] == [encode(M.ring, e) for e in y.elements]


def test_constructor_trees_are_saved_tree_only_or_dropped(tmp_path):
    # a tree given to a constructor that expands to the entries is kept, so
    # the matrix is saved tree-only; a stale one is dropped, and the matrix
    # is saved with its entries alone (a hand-tampered file still exits 2,
    # see test_cli::test_tampered_tree_exits_two)
    W = walsh(3)
    path = tmp_path / "m.json"
    save_matrix(GMatrix.from_rows(W.ring, W.rows(), tree=W.tree), path)
    assert "entries" not in json.loads(path.read_text())
    M = load_matrix(path)
    assert equal(M, W) and M.tree is not None
    rows = W.rows()
    rows[1][1] = -rows[1][1]
    S = GMatrix.from_rows(W.ring, rows, tree=W.tree)
    save_matrix(S, path)
    data = json.loads(path.read_text())
    assert S.tree is None and "entries" in data and data["tree"] is None
    M = load_matrix(path)
    assert equal(M, S) and M.tree is None


def _same_table(A, B):
    return A.units == B.units and np.array_equal(A.idx, B.idx)


@pytest.mark.parametrize(
    "v, ring",
    [(12, cyclotomic(12)), (20, prime_field(41)), (25, quadratic_field(101)), (1024, complex_ring())],
)
def test_dfts_are_written_as_their_generator(tmp_path, v, ring):
    F = dft_matrix(v, ring)
    path = tmp_path / "f.json"
    save_matrix(F, path)
    assert path.stat().st_size < 4096
    data = json.loads(path.read_text())
    assert data == {"ring": ring_spec_to_json(ring.spec), "order": v, "tree": {"kind": "dft", "order": v}}
    M = load_matrix(path)
    assert _same_table(M, F) and isinstance(M.tree, DftNode)
    # with entries the generator is checked against them
    N = matrix_from_json(json.loads(json.dumps(matrix_to_json(F)))) if v < 100 else M
    assert _same_table(N, F) and isinstance(N.tree, DftNode)


@pytest.mark.parametrize("v, ring", [(8, cyclotomic(8)), (12, cyclotomic(12)), (60, cyclotomic(60)), (1024, complex_ring())])
def test_a_dft_file_loads_as_the_table_of_its_node(tmp_path, v, ring):
    # the generator dft:v is one matrix: dft_matrix returns the table of its
    # node, and so does a load of its file
    F = dft_matrix(v, ring)
    path = tmp_path / "f.json"
    save_matrix(F, path)
    M = load_matrix(path)
    for N in (F, M):
        assert isinstance(N.tree, DftNode) and N.tree.expand() is N
    assert _same_table(M, F) and M.tree == F.tree


@pytest.mark.parametrize(
    "v, ring, size",
    [(256, cyclotomic(256), 10_000), (1024, complex_ring(), 16_000)],
    ids=["q256", "complex1024"],
)
def test_the_star_of_a_dft_saves_as_its_generator_with_rows_negated(tmp_path, v, ring, size):
    # star(F) is F's node with its rows negated, so its file is the
    # generator and two permutations of v indices, a few KB where the
    # entries of the table take 58.9 MB and 45 MB; it loads equal, within
    # tol on C
    S = star(dft_matrix(v, ring))
    path = tmp_path / "s.json"
    save_matrix(S, path)
    data = json.loads(path.read_text())
    assert "entries" not in data and data["tree"]["child"] == {"kind": "dft", "order": v}
    assert path.stat().st_size < size
    assert equal(load_matrix(path), S)


def test_generators_nest_in_trees(tmp_path):
    ring = cyclotomic(6)
    T = tensor(dft_matrix(3, ring), walsh(1, ring))
    path = tmp_path / "t.json"
    save_matrix(T, path)
    data = json.loads(path.read_text())
    assert data["tree"]["left"] == {"kind": "dft", "order": 3}
    M = load_matrix(path)
    assert equal(M, T) and M.tree is not None


def test_trees_are_read_against_the_declared_order(monkeypatch):
    # a generator above the declared order fails before its table is built,
    # in either file form
    built = []
    power_table = gbh._power_table
    monkeypatch.setattr(gbh, "_power_table", lambda ring, powers: built.append(len(powers)) or power_table(ring, powers))
    C = complex_ring()
    one = matrix_to_json(GMatrix.from_rows(C, [[C.one()]]))
    big = {"kind": "dft", "order": 4096}
    for data in ({"ring": one["ring"], "order": 2, "tree": big}, dict(one, tree=big)):
        with pytest.raises(MatrixError):
            matrix_from_json(data)
    assert built == []
    M = matrix_from_json({"ring": one["ring"], "order": 4, "tree": {"kind": "dft", "order": 4}})
    assert built == [4]
    assert equal(M, dft_matrix(4, C)) and M.tree.expand() is M


# files that gen wrote before DFTs carried trees: entries and a null tree
OLD_DFT4 = {
    "ring": {"kind": "cyclotomic-rationals", "w": 4},
    "order": 4,
    "entries": [
        [["1/1", "0/1"], ["1/1", "0/1"], ["1/1", "0/1"], ["1/1", "0/1"]],
        [["1/1", "0/1"], ["0/1", "1/1"], ["-1/1", "0/1"], ["0/1", "-1/1"]],
        [["1/1", "0/1"], ["-1/1", "0/1"], ["1/1", "0/1"], ["-1/1", "0/1"]],
        [["1/1", "0/1"], ["0/1", "-1/1"], ["-1/1", "0/1"], ["0/1", "1/1"]],
    ],
    "tree": None,
}
OLD_DFT6_GF7 = {
    "ring": {"kind": "prime-field", "p": 7},
    "order": 6,
    "entries": [
        [[1], [1], [1], [1], [1], [1]],
        [[1], [3], [2], [6], [4], [5]],
        [[1], [2], [4], [1], [2], [4]],
        [[1], [6], [1], [6], [1], [6]],
        [[1], [4], [2], [1], [4], [2]],
        [[1], [5], [4], [6], [2], [3]],
    ],
    "tree": None,
}


@pytest.mark.parametrize("data, v, ring", [(OLD_DFT4, 4, cyclotomic(4)), (OLD_DFT6_GF7, 6, prime_field(7))])
def test_files_with_entries_from_before_generators_load(tmp_path, data, v, ring):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    M = load_matrix(path)
    assert equal(M, dft_matrix(v, ring)) and M.tree is None
    assert verify_gbh(M).is_gbh


def test_identical_leaves_of_a_file_are_one_node(tmp_path, monkeypatch):
    # the 8 leaves of a walsh:8 file are one leaf, whose product verify_gbh
    # forms once, as for the walsh(8) built in memory
    path = tmp_path / "w.json"
    save_matrix(walsh(8), path)
    M = load_matrix(path)
    leaves = M.tree.leaves()
    assert len(leaves) == 8 and all(L is leaves[0] for L in leaves)
    assert len({id(node) for node in M.tree.factors}) == 1
    products = []
    lane_apply = gbh._lane_apply
    monkeypatch.setattr(gbh, "_lane_apply", lambda *args: products.append(args[0]) or lane_apply(*args))
    report = verify_gbh(M)
    assert report.is_gbh and report.method == "tree" and products == [leaves[0]]


def test_a_shared_leaf_meets_the_order_limit_of_each_place():
    # the right factor of a tensor node may not outgrow the declared order
    # over its left factor's, also where it is a leaf read before
    leaf = {"kind": "leaf", "matrix": matrix_to_json(k2(2), with_tree=False)}
    data = {"ring": leaf["matrix"]["ring"], "order": 4, "tree": {"kind": "tensor", "left": leaf, "right": leaf}}
    with pytest.raises(MatrixError, match="has order 4, above 1"):
        matrix_from_json(data)
    M = matrix_from_json(dict(data, order=16))
    assert equal(M, tensor(k2(2), k2(2))) and M.tree.left is M.tree.right


@pytest.mark.parametrize(
    "job",
    ["walsh:3", "walsh:12", "cbt:3", "cbt:4", "cbt:5", "cbt:6", "cbt:12", "dft:12", "family:1,1,1,3,2",
     "k3 --ring gf:5:1,1,1", "k4", "k6:2"],
)
def test_a_loaded_file_keeps_the_units_of_its_matrix_over_one_ring(tmp_path, job):
    # the reader decodes every leaf over the file's one ring, so the load
    # holds each unit once, as the matrix that wrote it does
    token, _, ring = job.partition(" --ring ")
    M = from_token(token, parse_ring_spec(ring) if ring else None)
    save_matrix(M, tmp_path / "m.json")
    L = load_matrix(tmp_path / "m.json")
    assert equal(L, M) and len(L.units) == len(M.units)
    assert len({id(x.ring) for x in (L, *L.units, *L.as_tree().leaves())}) == 1


def test_a_leaf_ring_is_the_ring_its_spec_names():
    # a complex spec without tol names the ring of tol 1e-9, in the header
    # and in a leaf alike; a leaf over another ring is refused
    data = matrix_to_json(tensor(walsh(1, complex_ring()), walsh(1, complex_ring())))
    data = dict(json.loads(json.dumps(data)), ring={"kind": "complex-float"})
    del data["entries"]
    data["tree"]["left"]["matrix"]["ring"] = {"kind": "complex-float"}
    M = matrix_from_json(data)
    assert equal(M, walsh(2, complex_ring())) and len(M.units) == 2
    data["tree"]["right"]["matrix"]["ring"] = {"kind": "complex-float", "tol": 0.5}
    with pytest.raises(MatrixError, match="a tree leaf is not over the matrix ring"):
        matrix_from_json(data)


def _json_dump_bytes(data, path):
    """The bytes that json.dump writes for data, with the line end."""
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
    return path.read_bytes()


@pytest.mark.parametrize(
    "ring", [rationals(), cyclotomic(12), prime_field(7), quadratic_field(5), complex_ring()], ids=lambda r: r.spec.kind
)
def test_files_are_written_with_the_bytes_of_json_dump(tmp_path, ring):
    # save_matrix and save_signal write through json.dumps (the C encoder);
    # the bytes are those of json.dump (the Python one), complex floats too
    one = ring.one()
    z = ring.root_of_unity({"rationals": 2, "prime-field": 3}.get(ring.spec.kind, 4))
    units = [one, z, ring.from_int(3), ring.from_int(3) * z]
    if ring.spec.kind == "complex-float":
        units += [ring.element(complex(1 / 3, -1e-300)), ring.element(complex(2.5e17, 0.1))]
    M = GMatrix.from_rows(ring, [[units[(i * j + i) % len(units)] for j in range(4)] for i in range(4)])
    x = Signal(ring, tuple(units))
    for data, save, obj in ((matrix_to_json(M), save_matrix, M), (signal_to_json(x), save_signal, x)):
        path = tmp_path / "new.json"
        save(obj, path)
        assert path.read_bytes() == _json_dump_bytes(data, tmp_path / "old.json")


def _walsh_file(t):
    """The JSON of ght gen walsh:t, by hand: one leaf of entries for t = 1,
    else the tree-only chain of t leaves, left-deep."""
    s1 = {"ring": {"kind": "rationals"}, "order": 2, "entries": [["1/1", "1/1"], ["1/1", "-1/1"]], "tree": None}
    if t == 1:
        return s1
    tree = leaf = {"kind": "leaf", "matrix": s1}
    for _ in range(t - 1):
        tree = {"kind": "tensor", "left": tree, "right": leaf}
    return {"ring": s1["ring"], "order": 2**t, "tree": tree}


@pytest.mark.parametrize("t", range(1, 13))
def test_gen_walsh_writes_the_left_deep_chain(tmp_path, t):
    # the chain is expanded balanced, but the file keeps the left-deep tree
    # byte for byte
    path = tmp_path / "w.json"
    assert main(["gen", f"walsh:{t}", "-o", str(path)]) == 0
    assert path.read_text() == json.dumps(_walsh_file(t)) + "\n"
    if t == 12:
        digest = "a92eaac7925d044a684c3dc0210fb3392167e27a049502487721e167af850500"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_leaf_too_large_to_recur_is_not_keyed(tmp_path, monkeypatch):
    # a leaf of order 65 cannot occur twice in a tree of order up to 4096, so
    # the loader spends no repr on it; the order-2 leaf beside it is keyed
    ring = rationals()
    big = GMatrix._table(ring, [ring.one(), ring.from_int(-1)], np.random.default_rng(7).integers(0, 2, (65, 65)))
    path = tmp_path / "t.json"
    save_matrix(tensor(walsh(1), big), path)
    seen = []
    monkeypatch.setattr(fileio, "repr", lambda obj: seen.append(obj) or repr(obj), raising=False)
    M = load_matrix(path)
    assert equal(M, tensor(walsh(1), big))
    assert [len(m["entries"]) for m in seen if isinstance(m, dict)] == [2]


# sha256 of files as gen (or save_matrix) writes them, pinned before each node
# kind wrote its own JSON: the file bytes do not depend on where that code lives
GOLDEN = {
    "walsh:3": ("e0a92e90e1d672184a510cb6aae380d5284ade2edcd0cac3fab0318f898dedba", 525),
    "walsh:12": ("a92eaac7925d044a684c3dc0210fb3392167e27a049502487721e167af850500", 2058),
    "dft:12 --ring cyclotomic:12": ("5071a3397979d615098dd7cfccaf79571e21c041ae9e0463cb12848d76e74cad", 103),
    "family:1,1,1,3,2": ("28fe4e21700d7f90af4a0bc3d2043c415bc5f05e8b6d2090a46ac100e080e18f", 1534),
    "k3 --ring cyclotomic:6": ("b19e590b591df4cb421c7df676e2ac60399c4242f8366934628f821168028643", 697),
    "cbt:4": ("0c0ad6eb85ce2d94fec4ee8b1d00b12c3ac976c784d29b701cf9187857bbb0fa", 1610),
    "star(dft_matrix(12, cyclotomic(12)))": ("ee5efa85f5b305d7d3d7880009e4d3a2cb01a7d98a345ed10e884d40d8009b26", 228),
}


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_files_keep_their_golden_bytes(tmp_path, job):
    path = tmp_path / "m.json"
    if job.startswith("star("):
        save_matrix(star(dft_matrix(12, cyclotomic(12))), path)
    else:
        assert main(["gen", *job.split(), "-o", str(path)]) == 0
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[job]


def _raising(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize("module, name, error", [(json, "dumps", MemoryError), (os, "replace", OSError)])
def test_a_failed_save_keeps_the_file_it_would_replace(tmp_path, monkeypatch, module, name, error):
    # the text is encoded before any file is opened, and a new file that
    # fails to replace the old one is removed again
    path = tmp_path / "m.json"
    save_matrix(walsh(2), path)
    before = path.read_bytes()
    monkeypatch.setattr(module, name, _raising(error))
    with pytest.raises(error):
        save_matrix(walsh(3), path)
    with pytest.raises(error):
        save_signal(Signal.from_ints(rationals(), [1, 2]), tmp_path / "x.json")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_written_files_keep_the_modes_that_open_gives(tmp_path):
    # a new file is 0o666 less the umask, as open(path, "w") makes it; a
    # replaced file keeps its mode, and a link is written through
    umask = os.umask(0o027)
    try:
        new = tmp_path / "new.json"
        save_matrix(walsh(2), new)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
    finally:
        os.umask(umask)
    old = tmp_path / "old.json"
    old.write_text("{}")
    old.chmod(0o604)
    link = tmp_path / "link.json"
    link.symlink_to(old)
    save_matrix(walsh(2), link)
    assert link.is_symlink() and stat.S_IMODE(old.stat().st_mode) == 0o604
    assert equal(load_matrix(old), walsh(2))


def test_a_file_that_is_no_regular_file_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        save_matrix(walsh(1), fifo)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert equal(matrix_from_json(json.loads(data)), walsh(1))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]
