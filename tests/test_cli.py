"""Exit-code contract and round-trips through the command-line entry point."""

import copy
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ght
from ght import (
    DoubleNode,
    GMatrix,
    Leaf,
    MatrixError,
    Permutation,
    Signal,
    back_circulant,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    k2,
    k4,
    permute,
    prime_field,
    quadratic_field,
    rationals,
    search_perfect_quadriphase,
    star,
    walsh,
)
from ght.catalog import from_token
from ght.cli import main, parse_ring_spec
from ght.fileio import (
    load_matrix,
    load_signal,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    save_signal,
    signal_to_json,
)
from ght.ring import RingError


def test_parse_ring_spec():
    assert parse_ring_spec("rationals").spec.kind == "rationals"
    assert parse_ring_spec("cyclotomic:12").spec.w == 12
    assert parse_ring_spec("gf:7").spec.p == 7
    assert parse_ring_spec("gf:5:1,1,1").spec.ext_poly == (1, 1, 1)
    assert parse_ring_spec("complex:1e-6").spec.tol == 1e-6
    with pytest.raises(RingError):
        parse_ring_spec("octonions")


def test_gen_and_verify(tmp_path, capsys):
    out = tmp_path / "w3.json"
    assert main(["gen", "walsh:3", "-o", str(out)]) == 0
    M = load_matrix(out)
    assert equal(M, walsh(3))
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "is-gbh: true" in text


def test_gen_with_ring_override(tmp_path):
    out = tmp_path / "w2.json"
    assert main(["gen", "walsh:2", "--ring", "cyclotomic:4", "-o", str(out)]) == 0
    assert load_matrix(out).ring.spec.kind == "cyclotomic-rationals"


def test_verify_failure_is_one(tmp_path):
    from ght import GMatrix

    bad = GMatrix.from_rows(rationals(), [[1, 1], [1, 1]])
    path = tmp_path / "bad.json"
    save_matrix(bad, path)
    assert main(["verify", str(path)]) == 1


def test_width_report(tmp_path, capsys):
    path = tmp_path / "k4.json"
    save_matrix(k4(), path)
    assert main(["width", str(path)]) == 0
    text = capsys.readouterr().out
    assert "width: 1" in text


def test_equiv_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(k4(), a)
    save_matrix(k4(), b)
    assert main(["equiv", str(a), str(b)]) == 0
    save_matrix(walsh(3, cyclotomic(4)), b)
    assert main(["equiv", str(a), str(b)]) == 1


def test_equiv_normalize_exit_codes(tmp_path, capsys):
    # a permuted back-circulant matrix of a perfect sequence normalises to a
    # permutation of K4; K4 and walsh:3 over Q(zeta_4) stay apart
    B = back_circulant(search_perfect_quadriphase(8)[0])
    B = permute(B, Permutation((3, 0, 6, 1, 7, 2, 5, 4)), Permutation((1, 5, 2, 7, 0, 4, 6, 3)))
    a, b, k = (tmp_path / f"{name}.json" for name in ("bc", "walsh3", "k4"))
    save_matrix(B, a)
    save_matrix(walsh(3, cyclotomic(4)), b)
    save_matrix(k4(), k)
    assert main(["equiv", "--normalize", str(a), str(k)]) == 0
    assert "equivalent: true" in capsys.readouterr().out
    assert main(["equiv", "--normalize", str(k), str(b)]) == 1
    assert "equivalent: false" in capsys.readouterr().out


def test_equiv_budget_exhaustion(tmp_path):
    from ght import Permutation, k3, permute, tensor

    ring = cyclotomic(12)
    A = tensor(k3(ring), walsh(1, ring))
    B = permute(
        A,
        Permutation((5, 3, 8, 1, 11, 0, 7, 2, 9, 4, 10, 6)),
        Permutation((2, 6, 0, 10, 4, 8, 1, 11, 3, 7, 5, 9)),
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(A, a)
    save_matrix(B, b)
    assert main(["equiv", str(a), str(b), "--budget", "2"]) == 2


def test_equiv_of_a_walsh10_file_against_itself(tmp_path, capsys):
    # the search assigns 1024 columns, one stack frame each: past the
    # interpreter's recursion limit, where a recursive search raised
    m = str(tmp_path / "w.json")
    assert main(["gen", "walsh:10", "-o", m]) == 0
    capsys.readouterr()
    assert main(["equiv", m, m]) == 0
    out = capsys.readouterr().out
    assert "equivalent: true" in out and f"row-witness: {list(range(1024))}" in out


def test_apply_invert_roundtrip(tmp_path):
    m = tmp_path / "m.json"
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    z = tmp_path / "z.json"
    save_matrix(walsh(3), m)
    sig = Signal.from_ints(rationals(), [3, -1, 4, 1, -5, 9, 2, -6])
    save_signal(sig, x)
    assert main(["apply", str(m), str(x), "-o", str(y)]) == 0
    assert main(["invert", str(m), str(y), "-o", str(z)]) == 0
    assert load_signal(z) == sig


def test_invert_walks_the_tree_and_matches_the_treeless_file(tmp_path):
    m, bare, x, y, z1, z2 = (tmp_path / f"{n}.json" for n in ("m", "bare", "x", "y", "z1", "z2"))
    M = walsh(6)
    save_matrix(M, m)
    _write(bare, matrix_to_json(M, with_tree=False))
    q = rationals()
    sig = Signal(q, tuple(q.element(Fraction(k - 30, k % 7 + 1)) for k in range(64)))
    save_signal(sig, x)
    assert main(["apply", str(m), str(x), "-o", str(y)]) == 0
    assert main(["invert", str(m), str(y), "-o", str(z1)]) == 0
    assert main(["invert", str(bare), str(y), "-o", str(z2)]) == 0
    assert z1.read_text() == z2.read_text()
    assert load_signal(z1) == sig


def test_apply_fast_prints_counts(tmp_path, capsys):
    m = tmp_path / "m.json"
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    save_matrix(walsh(4), m)
    save_signal(Signal.from_ints(rationals(), [1] * 16), x)
    assert main(["apply", "--fast", str(m), str(x), "-o", str(y)]) == 0
    text = capsys.readouterr().out
    assert "multiplications: 128" in text


def test_apply_fast_without_tree_runs_a_leaf(tmp_path, capsys):
    m, x, y, z = (str(tmp_path / f"{n}.json") for n in "mxyz")
    assert main(["gen", "k4", "-o", m]) == 0
    M = load_matrix(m)
    assert M.tree is None
    save_signal(Signal.from_ints(M.ring, [3, -1, 4, 1, -5, 9, 2, -6]), x)
    capsys.readouterr()
    assert main(["apply", "--fast", m, x, "-o", y]) == 0
    text = capsys.readouterr().out
    assert "multiplications: 64" in text
    assert "additions: 56" in text
    assert main(["apply", m, x, "-o", z]) == 0
    assert load_signal(y) == load_signal(z)


@pytest.mark.parametrize(
    "token, verbs, method",
    [
        ("walsh:8", ["apply", "invert"], "tree-walk"),
        ("walsh:5", ["apply", "invert"], "table"),
        ("dft:60", ["apply", "invert"], "tree-walk"),
        ("cbt:3", ["apply --fast"], "tree-walk"),
        ("walsh:5", ["apply --fast"], "tree-walk"),
    ],
)
def test_transform_reports_name_their_route(tmp_path, capsys, token, verbs, method):
    # ght and ight walk a tree from v * d = 256 on, and take one table below
    # that; apply --fast walks the file's tree (cbt's doubling tree too), or
    # its one table without one
    m, x, y = (str(tmp_path / f"{n}.json") for n in "mxy")
    assert main(["gen", token, "-o", m]) == 0
    M = load_matrix(m)
    save_signal(Signal.from_ints(M.ring, [(7 * k) % 19 - 9 for k in range(M.order)]), x)
    capsys.readouterr()
    for verb in verbs:
        assert main(verb.split() + [m, x, "-o", y]) == 0
        text = capsys.readouterr().out
        assert f"length: {M.order}" in text and f"method: {method}\n" in text, verb


def test_seqsearch_exit_codes(capsys):
    assert main(["seqsearch", "4"]) == 0
    text = capsys.readouterr().out
    assert "perfect-count:" in text
    assert main(["seqsearch", "3"]) == 1  # no perfect quadriphase of length 3
    assert main(["seqsearch", "99"]) == 2  # outside the exhaustive bound


def test_enumerate2x2(capsys):
    assert main(["enumerate2x2", "--group-order", "4"]) == 0
    assert "count: 1" in capsys.readouterr().out
    # one candidate per root of unity, not one per 4-tuple of them
    assert main(["enumerate2x2", "--group-order", "96"]) == 0
    assert "count: 1" in capsys.readouterr().out


def test_usage_errors_are_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    assert main(["gen", "nope", "-o", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _drop(data, *keys):
    """A copy of the JSON object with the field at the key path removed."""
    data = copy.deepcopy(data)
    node = data
    for k in keys[:-1]:
        node = node[k]
    del node[keys[-1]]
    return data


def test_malformed_files_exit_two(tmp_path):
    x = tmp_path / "x.json"
    save_signal(Signal.from_ints(rationals(), [1] * 8), x)
    W3 = matrix_to_json(walsh(3))
    leaf = ("tree", "left", "left")
    bad_matrices = [_drop(W3, k) for k in ("ring", "order")]
    # without a tree, "entries" is the only description of the matrix
    bad_matrices.append(_drop(matrix_to_json(walsh(3), with_tree=False), "entries"))
    bad_matrices += [_drop(W3, *leaf, "kind"), _drop(W3, *leaf, "matrix")]
    bad_matrices += [_drop(W3, "tree", k) for k in ("left", "right")]
    P = matrix_to_json(permute(walsh(2), Permutation((1, 0, 3, 2)), Permutation((0, 1, 2, 3))))
    bad_matrices += [_drop(P, "tree", k) for k in ("child", "row", "col")]
    # JSON true and false are not indices, though a Python bool is an int
    for perm in ("1032", {"0": 1}, [1, 0, "3", 2], [True, False, 3, 2]):
        data = copy.deepcopy(P)
        data["tree"]["row"] = perm
        bad_matrices.append(data)
    bad_matrices += [dict(W3, entries=5), dict(W3, entries=list(range(8)))]
    C2 = matrix_to_json(cbt(2))
    bad_matrices.append(dict(C2, ring=dict(C2["ring"], w="4")))
    # a p beyond what the Miller-Rabin bases decide
    for ring in (prime_field(7), quadratic_field(5)):
        data = matrix_to_json(walsh(1, ring), with_tree=False)
        bad_matrices.append(dict(data, ring=dict(data["ring"], p=3317044064679887385961981)))
    # a list where Q wants "p/q", an int where Q(zeta_4) wants a coefficient list
    for data, entry in ((W3, [1, 2]), (C2, 1)):
        data = copy.deepcopy(data)
        data["entries"][0][0] = entry
        bad_matrices.append(data)
    for n, data in enumerate(bad_matrices):
        path = _write(tmp_path / f"m{n}.json", data)
        assert main(["verify", path]) == 2, n
        assert main(["apply", path, str(x), "-o", str(tmp_path / "y.json")]) == 2, n
    # with its tree, a file without "entries" is the valid tree-only form
    tree_only = _write(tmp_path / "tree-only.json", _drop(W3, "entries"))
    assert main(["verify", tree_only]) == 0
    assert equal(load_matrix(tree_only), walsh(3))
    sig = signal_to_json(Signal.from_ints(rationals(), [1, 2]))
    m = tmp_path / "w1.json"
    save_matrix(walsh(1), m)
    bad_signals = [_drop(sig, k) for k in ("ring", "length", "elements")]
    bad_signals += [dict(sig, elements=5), dict(sig, elements=[[1], [2]])]
    bad_signals.append(dict(sig, elements=["1/0", "1/1"]))
    for n, data in enumerate(bad_signals):
        path = _write(tmp_path / f"x{n}.json", data)
        assert main(["apply", str(m), path, "-o", str(tmp_path / "y.json")]) == 2, n
    # elements of the wrong JSON kind, with a zero denominator, in exponent
    # notation or with a part that is not a finite float, each once read as
    # some element or raised; the files carry no tree, so only decoding rejects
    wrong_kind = [
        (prime_field(7), [[2.5], "5", [True], [1, 2]]),
        (rationals(), [0.1, 1.0, "1/0", True, "1e1000000", "1.5e3", "1e5", " 1", "1 ", "+1"]),
        (rationals(), ["1/-2", "", "1/", "/2", "9" * 5000, "1/" + "9" * 5000, None]),
        (cyclotomic(4), [[1, 0.5], ["1/0", "0/1"], ["1e1000000", "0/1"], ["0/1", "1.5e3"]]),
        (cyclotomic(4), [["1e5", "0/1"], [" 1", "0/1"], [True, "0/1"], [1.0, 0], ["0/0", "1"]]),
        (
            complex_ring(),
            [["1", "2"], [1, 2, 3], [10**400, 0], [float("nan"), 0], [float("inf"), 0]],
        ),
    ]
    for n, (ring, elements) in enumerate(wrong_kind):
        m = _write(tmp_path / f"r{n}.json", matrix_to_json(walsh(1, ring), with_tree=False))
        x = _write(tmp_path / f"s{n}.json", signal_to_json(Signal.from_ints(ring, [1, 1])))
        for k, e in enumerate(elements):
            data = matrix_to_json(walsh(1, ring), with_tree=False)
            data["entries"][0][0] = e
            bad_m = _write(tmp_path / f"r{n}-{k}.json", data)
            assert main(["verify", bad_m]) == 2, (n, k)
            assert main(["apply", bad_m, x, "-o", str(tmp_path / "y.json")]) == 2, (n, k)
            data = signal_to_json(Signal.from_ints(ring, [1, 1]))
            data["elements"][0] = e
            bad_x = _write(tmp_path / f"s{n}-{k}.json", data)
            assert main(["apply", m, bad_x, "-o", str(tmp_path / "y.json")]) == 2, (n, k)


def test_double_node_files(tmp_path, capsys):
    # cbt:t is a tree-only file of double nodes, read back as the same
    # matrix; halves of different orders, a non-boolean "columns" and a half
    # above half the order limit exit 2
    m = str(tmp_path / "c.json")
    assert main(["gen", "cbt:5", "-o", m]) == 0
    with open(m) as fh:
        data = json.load(fh)
    assert "entries" not in data and data["tree"]["kind"] == "double"
    assert equal(load_matrix(m), cbt(5))
    assert main(["verify", m]) == 0 and "method: tree\n" in capsys.readouterr().out
    bad = copy.deepcopy(data)
    bad["tree"]["bottom"] = data["tree"]["top"]["top"]
    f4096 = {"kind": "dft", "order": 4096}
    wide = {"ring": {"kind": "complex-float"}, "order": 4096, "tree": {"kind": "double", "top": f4096, "bottom": f4096}}
    for n, case in enumerate([bad, dict(data, tree=dict(data["tree"], columns=1)), wide]):
        path = _write(tmp_path / f"bad{n}.json", case)
        assert main(["verify", path]) == 2, n
    err = capsys.readouterr().err
    assert "halves have orders 16 and 8" in err and "'columns' is not a boolean" in err
    assert "dft order 4096 is not an int up to 2048" in err
    # a starred tree holds the column form, which round-trips too
    S = star(cbt(4))
    save_matrix(S, tmp_path / "s.json")
    assert '"columns": true' in (tmp_path / "s.json").read_text()
    assert equal(load_matrix(tmp_path / "s.json"), S)


def test_apply_fast_of_a_double_node_file_is_exact_past_float32(tmp_path, capsys):
    # S_1 and S_1 in column form over Q, on entries near 2^23: the leaves
    # return float32, and the butterfly's odd sum 2^25 - 7 is past 2^24
    M = DoubleNode(Leaf(walsh(1)), Leaf(walsh(1)), True).expand()
    m, x, y = (str(tmp_path / f"{s}.json") for s in "mxy")
    save_matrix(M, m)
    save_signal(Signal.from_ints(rationals(), [2**23 - 1] + [2**23 - 2] * 3), x)
    assert main(["apply", "--fast", m, x, "-o", y]) == 0
    assert "method: tree-walk\n" in capsys.readouterr().out
    assert [e.payload for e in load_signal(y).elements] == [2**25 - 7, 1, 1, 1]


def test_gen_cbt12_verifies_by_its_tree_in_a_process(tmp_path):
    # the doubling tree of cbt:12 is a file of a few KB, decided by its two
    # leaves; without a tree, verify_gbh(cbt(10)) took 1.18 s by the product
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "c.json")
    start = time.perf_counter()
    gen = subprocess.run([sys.executable, "-m", "ght.cli", "gen", "cbt:12", "-o", m], env=env, capture_output=True, text=True, timeout=120)
    run = subprocess.run([sys.executable, "-m", "ght.cli", "verify", m], env=env, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 2
    assert gen.returncode == 0 and run.returncode == 0, gen.stderr + run.stderr
    assert "is-gbh: true\n" in run.stdout and "method: tree\n" in run.stdout
    assert os.path.getsize(m) < 20_000


def test_complex_dft4095_verifies_by_its_generator_in_a_process(tmp_path):
    # its units lie within 1e-15 of the exact roots, so the rounding bound
    # decides it without the 4095^2 complex product (6.1-6.8 s before)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "f.json")
    gen = subprocess.run([sys.executable, "-m", "ght.cli", "gen", "dft:4095", "--ring", "complex", "-o", m], env=env, capture_output=True, text=True, timeout=120)
    assert gen.returncode == 0, gen.stderr
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "ght.cli", "verify", m], env=env, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 1
    assert run.returncode == 0 and "method: generator\n" in run.stdout, run.stderr
    assert "entry-group-order: 4095\n" in run.stdout


def test_tampered_tree_exits_two(tmp_path):
    data = matrix_to_json(walsh(3))
    data["tree"]["left"]["left"]["matrix"]["entries"][1][1] = "1/1"  # was -1
    m = _write(tmp_path / "tampered.json", data)
    x = tmp_path / "x.json"
    save_signal(Signal.from_ints(rationals(), [3, -1, 4, 1, -5, 9, 2, -6]), x)
    y = str(tmp_path / "y.json")
    assert main(["verify", m]) == 2
    assert main(["apply", m, str(x), "-o", y]) == 2
    assert main(["apply", "--fast", m, str(x), "-o", y]) == 2
    with pytest.raises(MatrixError):
        matrix_from_json(data)


def test_null_tree_nodes_exit_two(tmp_path):
    data = _drop(matrix_to_json(walsh(2)), "entries")
    for key in ("left", "right"):
        bad = copy.deepcopy(data)
        bad["tree"][key] = None
        assert main(["verify", _write(tmp_path / f"{key}.json", bad)]) == 2, key


def test_tree_leaf_ring_must_match_header(tmp_path):
    data = matrix_to_json(walsh(2))
    leaf = matrix_to_json(walsh(1, cyclotomic(4)), with_tree=False)
    data["tree"]["right"]["matrix"] = leaf
    assert main(["verify", _write(tmp_path / "m.json", data)]) == 2


def test_roundtrip_walsh10(tmp_path):
    """gen -> verify -> apply -> apply --fast -> invert on a seeded signal."""
    m, x, y, yf, z = (str(tmp_path / f"{n}.json") for n in ("m", "x", "y", "yf", "z"))
    assert main(["gen", "walsh:10", "-o", m]) == 0
    sig = Signal.from_ints(rationals(), [(7 * k) % 19 - 9 for k in range(1024)])
    save_signal(sig, x)
    assert main(["verify", m]) == 0
    assert main(["apply", m, x, "-o", y]) == 0
    assert main(["apply", "--fast", m, x, "-o", yf]) == 0
    assert main(["invert", m, y, "-o", z]) == 0
    assert load_signal(y) == load_signal(yf)
    assert load_signal(z) == sig


@pytest.mark.parametrize("token", ["walsh:5", "family:1,1,1,3,2"])
def test_gen_writes_tree_only_files(tmp_path, token):
    m = tmp_path / "m.json"
    assert main(["gen", token, "-o", str(m)]) == 0
    assert m.stat().st_size < 4096
    assert "entries" not in json.loads(m.read_text())
    M, want = load_matrix(m), from_token(token)
    assert equal(M, want)
    assert M.tree is not None and equal(M.tree.expand(), want)


def test_tree_only_order_must_match_the_tree(tmp_path):
    data = _drop(matrix_to_json(walsh(3)), "entries")
    for order in (4, 16):
        m = _write(tmp_path / f"m{order}.json", dict(data, order=order))
        assert main(["verify", m]) == 2


def test_tree_only_file_means_its_tree(tmp_path):
    """An edited leaf is not a contradiction in a tree-only file: the file
    describes another matrix, which is not GBH."""
    data = _drop(matrix_to_json(walsh(3)), "entries")
    data["tree"]["left"]["left"]["matrix"]["entries"][1][1] = "1/1"  # was -1
    m = _write(tmp_path / "m.json", data)
    x, y, yf = (str(tmp_path / f"{n}.json") for n in ("x", "y", "yf"))
    save_signal(Signal.from_ints(rationals(), [3, -1, 4, 1, -5, 9, 2, -6]), x)
    assert main(["verify", m]) == 1
    assert main(["apply", m, x, "-o", y]) == 0
    assert main(["apply", "--fast", m, x, "-o", yf]) == 0
    assert load_signal(y) == load_signal(yf)


def test_order_limit_exits_two(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    for token in ("walsh:13", "walsh:40", "cbt:13", "dft:100000", "family:11,1,0,1,2"):
        start = time.perf_counter()
        assert main(["gen", token, "-o", out]) == 2, token
        assert time.perf_counter() - start < 1, token
    # 13 K2 leaves make order 4^13: rejected whether the header declares it or not
    leaf = {"kind": "leaf", "matrix": matrix_to_json(k2(2), with_tree=False)}
    tree = leaf
    for _ in range(12):
        tree = {"kind": "tensor", "left": tree, "right": leaf}
    for order in (4**13, 16):
        data = {"ring": leaf["matrix"]["ring"], "order": order, "tree": tree}
        m = _write(tmp_path / f"k2-{order}.json", data)
        start = time.perf_counter()
        assert main(["verify", m]) == 2, order
        assert time.perf_counter() - start < 1, order
    # walsh:12 is at the limit, and its file holds only the tree
    assert main(["gen", "walsh:12", "-o", out]) == 0
    assert (tmp_path / "m.json").stat().st_size < 4096
    assert "above the limit 4096" in capsys.readouterr().err



def test_cyclotomic_w_above_the_limit_exits_two(tmp_path, capsys):
    # each w and group order is checked before Phi_w or a table of Q(zeta_w)
    # is built: gen walsh:3 --ring cyclotomic:30030 took 179 s without it
    m, x = (str(tmp_path / f"{n}.json") for n in "mx")
    assert main(["gen", "walsh:1", "-o", m]) == 0
    save_signal(Signal.from_ints(rationals(), [1, 2]), x)
    big = {"kind": "cyclotomic-rationals", "w": 30030}
    bad_m, bad_x = (
        _write(tmp_path / f"bad-{n}.json", dict(json.loads((tmp_path / f"{n}.json").read_text()), ring=big))
        for n in "mx"
    )
    capsys.readouterr()
    runs = [
        ["gen", "walsh:3", "--ring", "cyclotomic:30030", "-o", str(tmp_path / "g.json")],
        ["verify", bad_m],
        ["apply", m, bad_x, "-o", str(tmp_path / "y.json")],
        ["enumerate2x2", "--group-order", "30030"],
        ["enumerate2x2", "--group-order", "100000", "--ring", "gf:100003"],
    ]
    for args in runs:
        start = time.perf_counter()
        assert main(args) == 2, args
        assert time.perf_counter() - start < 1, args
        assert "is above the limit 4096" in capsys.readouterr().err, args


def test_boolean_ring_w_and_declared_order_exit_two(tmp_path, capsys):
    # JSON true is no w and no order: Q(zeta_True) verified and saved
    # "w": true, and "order": true read an order-1 matrix that applied
    x = _write(tmp_path / "x.json", signal_to_json(Signal.from_ints(rationals(), [3])))
    w = {"ring": {"kind": "cyclotomic-rationals", "w": True}, "order": 2, "entries": [[["1/1"], ["1/1"]], [["1/1"], ["-1/1"]]]}
    order = {"ring": {"kind": "rationals"}, "order": True, "entries": [["1/1"]]}
    capsys.readouterr()
    for args in (["verify", _write(tmp_path / "w.json", w)], ["apply", _write(tmp_path / "o.json", order), x, "-o", str(tmp_path / "y.json")]):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, args
    # 2.0 is still the order 2
    data = json.loads(json.dumps(matrix_to_json(walsh(1), with_tree=False)))
    assert main(["verify", _write(tmp_path / "float.json", dict(data, order=2.0))]) == 0


def test_gen_and_verify_over_a_large_prime_field(tmp_path, capsys):
    # -1 is payload p - 1, which a scan for the first element of order 2
    # reached only after p - 2 candidates
    out = str(tmp_path / "m.json")
    start = time.perf_counter()
    assert main(["gen", "dft:2", "--ring", "gf:100000007", "-o", out]) == 0
    assert main(["verify", out]) == 0
    assert time.perf_counter() - start < 1
    assert "entry-group-order: 2" in capsys.readouterr().out


def test_dft_generator_orders_are_checked(tmp_path):
    ring = {"kind": "cyclotomic-rationals", "w": 12}
    base = {"ring": ring, "order": 12}
    ok = _write(tmp_path / "ok.json", dict(base, tree={"kind": "dft", "order": 12}))
    assert main(["verify", ok]) == 0
    # the wrong order, no int, above the limit, or no such root in the ring
    for n, order in enumerate((6, 24, "12", 12.0, True, None, 4097, 10**30, 0, -3)):
        m = _write(tmp_path / f"m{n}.json", dict(base, tree={"kind": "dft", "order": order}))
        start = time.perf_counter()
        assert main(["verify", m]) == 2, order
        assert time.perf_counter() - start < 1, order
    no_order = _write(tmp_path / "none.json", dict(base, tree={"kind": "dft"}))
    assert main(["verify", no_order]) == 2
    gf7 = _write(tmp_path / "gf7.json", {"ring": {"kind": "prime-field", "p": 7}, "order": 12,
                                         "tree": {"kind": "dft", "order": 12}})
    assert main(["verify", gf7]) == 2
    # many generators in a few bytes ask for no more than order 4096 at once
    tree = {"kind": "dft", "order": 64}
    for _ in range(40):
        tree = {"kind": "tensor", "left": {"kind": "dft", "order": 64}, "right": tree}
    for left_deep in (False, True):
        if left_deep:
            tree = {"kind": "dft", "order": 4096}
            for _ in range(40):
                tree = {"kind": "tensor", "left": tree, "right": {"kind": "dft", "order": 4096}}
        data = {"ring": {"kind": "complex-float", "tol": 1e-9}, "order": 4096, "tree": tree}
        m = _write(tmp_path / "many.json", data)
        start = time.perf_counter()
        assert main(["verify", m]) == 2
        assert time.perf_counter() - start < 1
    # a generator deep in a tree is checked as well
    leaf = {"kind": "leaf", "matrix": matrix_to_json(walsh(1, cyclotomic(12)), with_tree=False)}
    for order in (4097, "3"):
        tree = {"kind": "tensor", "left": {"kind": "dft", "order": order}, "right": leaf}
        m = _write(tmp_path / "deep.json", dict(base, order=6, tree=tree))
        assert main(["verify", m]) == 2, order


def test_leaf_matrices_cannot_nest_generators(tmp_path):
    # a leaf of order 1 whose matrix brings a tree of generators, level under
    # level, would build a matrix of order 4096 per level; a leaf's matrix
    # has no tree, and no tree outgrows its matrix's declared order
    one = matrix_to_json(GMatrix.from_rows(complex_ring(), [[complex_ring().one()]]))
    tree = {"kind": "leaf", "matrix": one}
    for _ in range(300):
        matrix = dict(one, tree={"kind": "tensor", "left": {"kind": "dft", "order": 4096},
                                 "right": tree})
        tree = {"kind": "leaf", "matrix": matrix}
    for data in (dict(one, tree=tree), matrix, {"ring": one["ring"], "order": 1, "tree": tree}):
        m = _write(tmp_path / "nested.json", data)
        start = time.perf_counter()
        assert main(["verify", m]) == 2
        assert time.perf_counter() - start < 1
    # nor may a leaf be tree-only
    leaf = {"kind": "leaf", "matrix": {"ring": one["ring"], "order": 4096,
                                       "tree": {"kind": "dft", "order": 4096}}}
    for order in (4096, 1):
        m = _write(tmp_path / "tree-only-leaf.json",
                   {"ring": one["ring"], "order": order, "tree": leaf})
        start = time.perf_counter()
        assert main(["verify", m]) == 2, order
        assert time.perf_counter() - start < 1, order


def test_complex_dft1024_gen_and_verify(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    start = time.perf_counter()
    assert main(["gen", "dft:1024", "--ring", "complex", "-o", out]) == 0
    assert main(["verify", out]) == 0
    assert time.perf_counter() - start < 2  # 12 s before DFTs were written as generators
    assert (tmp_path / "f.json").stat().st_size < 4096
    assert "entry-group-order: 1024" in capsys.readouterr().out


def _verify_peak_kb(path):
    """(run, peak): `ght verify path` in a child process, and the child's
    peak resident KB. That is VmHWM, the high-water mark of the child's own
    address space: a child started by vfork reports the parent's peak as its
    ru_maxrss, which under pytest exceeded 100 MB."""
    code = (
        "import sys\n"
        "from ght.cli import main\n"
        "rc = main(['verify', sys.argv[1]])\n"
        "print('peak-kb:', next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and "is-gbh: true" in run.stdout, run.stderr
    return run, int(run.stdout.split("peak-kb:")[1])


def test_dft128_entries_file_verifies_in_bounded_memory(tmp_path):
    # star(M) of a DFT over Q(zeta_v) is a lane batch v * d columns wide; a
    # block of rows is bounded by its product's size as well, so the 7.4 MB
    # entries file of dft(128) over Q(zeta_128) no longer peaks near 1.1 GB
    m = _write(tmp_path / "dft128.json", matrix_to_json(dft_matrix(128, cyclotomic(128)), with_tree=False))
    assert _verify_peak_kb(m)[1] < 512 * 1024


def test_walsh1_over_q_zeta_4095_verifies_in_seconds(tmp_path):
    # the tables of Q(zeta_4095) are built row from row, x times the last;
    # reducing each x^m afresh made this verify take 69 s
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "w.json")
    ght_cli = [sys.executable, "-m", "ght.cli"]
    gen = subprocess.run(ght_cli + ["gen", "walsh:1", "--ring", "cyclotomic:4095", "-o", m], env=env, capture_output=True, timeout=120)
    assert gen.returncode == 0
    start = time.perf_counter()
    run = subprocess.run(ght_cli + ["verify", m], env=env, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 30
    assert run.returncode == 0 and "is-gbh: true" in run.stdout, run.stderr


def test_walsh1_over_q_zeta_4093_folds_nothing(tmp_path):
    # d = 4092, so a fold of plane 0 would hold 4092^2 values and the fold
    # table of Phi_4093 twice as many: a +-1 table folds nothing, as its fold
    # rows would be the identity (800 MB peak when it folded), and the
    # orders and inverses of +-1 build no table of the roots of Q(zeta_4093)
    # (289 MB peak when they did)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "w.json")
    gen = subprocess.run([sys.executable, "-m", "ght.cli", "gen", "walsh:1", "--ring", "cyclotomic:4093", "-o", m], env=env, capture_output=True, timeout=120)
    assert gen.returncode == 0
    assert _verify_peak_kb(m)[1] < 100 * 1024


def test_an_oversized_fold_exits_two_before_allocating(tmp_path):
    # the table of the order-9 DFT over Q(zeta_4095), as an entries file
    # without its generator, has 882 nonzero planes of d = 1728: its fold
    # would hold 2.6e9 values, so verify exits 2 with a message, here in a
    # child whose address space is limited to 1 GiB; the generator file of
    # the same DFT is decided by its node, with no product and no fold
    F = dft_matrix(9, cyclotomic(4095))
    entries = _write(tmp_path / "e.json", matrix_to_json(GMatrix._table(F.ring, F.units, F.idx)))
    generator = _write(tmp_path / "g.json", {"ring": {"kind": "cyclotomic-rationals", "w": 4095}, "order": 9, "tree": {"kind": "dft", "order": 9}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    verify = lambda m: subprocess.run([sys.executable, "-m", "ght.cli", "verify", m], env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit)
    run = verify(entries)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "above the limit" in run.stderr
    run = verify(generator)
    assert run.returncode == 0 and "method: generator\n" in run.stdout, run.stderr
    assert "entry-group-order: 9\n" in run.stdout


@pytest.mark.parametrize("v", [256, 243])
def test_a_prime_power_dft_generator_file_verifies_without_the_product(tmp_path, v):
    # dft:v over Q(zeta_v) is one leaf; its product M M* took 19.5 s at 256 MB
    # (v = 256) and 26.0 s at 328 MB (v = 243), its generator decides it
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "f.json")
    gen = subprocess.run([sys.executable, "-m", "ght.cli", "gen", f"dft:{v}", "--ring", f"cyclotomic:{v}", "-o", m], env=env, capture_output=True, text=True, timeout=120)
    assert gen.returncode == 0, gen.stderr
    start = time.perf_counter()
    run, peak = _verify_peak_kb(m)
    assert time.perf_counter() - start < 10
    assert "method: generator\n" in run.stdout and f"entry-group-order: {v}\n" in run.stdout
    assert peak < 200 * 1024


def test_gen_dft4095_takes_seconds(tmp_path):
    # the powers of omega are a slice of the table of roots of Q(zeta_4095),
    # which is built row from row, x times the last; multiplying dense
    # powers one at a time made this take 142 s
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    m = str(tmp_path / "f.json")
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "ght.cli", "gen", "dft:4095", "-o", m], env=env, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 30
    assert run.returncode == 0, run.stderr
    assert "order: 4095" in run.stdout


@pytest.mark.parametrize("v", [30, 60])
def test_good_thomas_trees_of_complex_dfts_need_no_tolerance(tmp_path, v):
    out = str(tmp_path / "f.json")
    assert main(["gen", f"dft:{v}", "--ring", "complex:0", "-o", out]) == 0
    M = load_matrix(out)
    assert M.ring.spec.tol == 0 and M.order == v


def test_complex_tolerance_that_is_not_finite_exits_two(tmp_path, capsys):
    assert main(["gen", "walsh:1", "--ring", "complex:nan", "-o", str(tmp_path / "g.json")]) == 2
    assert main(["gen", "walsh:1", "--ring", "complex:inf", "-o", str(tmp_path / "g.json")]) == 2
    data = matrix_to_json(walsh(1, complex_ring()), with_tree=False)
    data["ring"]["tol"] = float("nan")
    m = _write(tmp_path / "m.json", data)
    assert "NaN" in (tmp_path / "m.json").read_text()
    x = _write(tmp_path / "x.json", signal_to_json(Signal.from_ints(complex_ring(), [1, 1])))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ght.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for args in (["verify", m], ["apply", m, x, "-o", str(tmp_path / "y.json")]):
        run = subprocess.run([sys.executable, "-m", "ght.cli", *args], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize(
    "message, line",
    [("Unable to allocate 39.2 GiB for an array", "error: Unable to allocate 39.2 GiB for an array\n"), ("", "error: MemoryError\n")],
    ids=["numpy-message", "no-message"],
)
def test_memory_error_exits_two(tmp_path, monkeypatch, capsys, message, line):
    out = str(tmp_path / "w.json")
    assert main(["gen", "walsh:1", "-o", out]) == 0

    def verify_gbh(M):
        raise MemoryError(message)

    monkeypatch.setattr(ght.gbh, "verify_gbh", verify_gbh)
    assert main(["verify", out]) == 2
    assert capsys.readouterr().err == line
