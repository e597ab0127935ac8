"""JSON round-trips for matrices and signals across all backends."""

import json

import pytest
from hypothesis import given, settings
from test_transform import walks

from ght import (
    GMatrix,
    MatrixError,
    Signal,
    b3,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    jacketize_cbt,
    k2,
    k4,
    quadratic_field,
    rationals,
    walsh,
)
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
    M = GMatrix.from_rows(E.ring, E.rows(), tree=tree)
    path = tmp_path_factory.getbasetemp() / "random-tree.json"
    save_matrix(M, path)
    v = M.order
    for N in (matrix_from_json(json.loads(json.dumps(matrix_to_json(M)))), load_matrix(path)):
        assert N.ring.spec == M.ring.spec
        assert all(N.entry(i, j) == M.entry(i, j) for i in range(v) for j in range(v))
        assert N.tree is not None and equal(N.tree.expand(), M)
    assert signal_from_json(json.loads(json.dumps(signal_to_json(x)))) == x
