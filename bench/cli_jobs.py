"""cli-jobs: user jobs through the in-process command line, `ght.cli.main`.

Each op is one job on JSON files in a scratch directory; each round runs
these 35 jobs in a seeded order:

- roundtrip (15 + 5): gen -> verify -> apply -> apply --fast -> invert. The
  two apply outputs must agree and invert must return the input signal.
- width (5 + 2): the jacket width of walsh:6..8, k4 and the family matrix.
- equiv (3): two seeded permuted back-circulant matrices against K4 (exit 0)
  and K4 against walsh:3 over Q(zeta_4) (exit 1), with --normalize.
- seqsearch (3): lengths 6..8 with their perfect-sequence counts.
- malformed (2): a file without "order", and a walsh:3 file whose tree leaf
  was edited; both must be rejected with exit 2.

The "+ n" jobs are cheap ones run a second time, so that a run of four
rounds has 140 ops and p90 falls inside a cost class rather than on the edge
between two.

fileio decoding and encoding and the CLI dominate. Loads (verify, apply,
width) sit beside saves (gen, apply outputs), so a loader gain that costs
saving shows. The matrices are small, so gbh and transform arithmetic are a
minor share.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

NAME = "cli-jobs"
ROUNDS = 4  # per run: at least 100 ops, so that ten lie beyond p90
KNOWN_DEFECTS = {
    "malformed-order": "a matrix file without 'order' raises KeyError out of "
    "cli.main instead of exiting 2",
    "malformed-tree": "factor trees are not checked against the entries: verify "
    "exits 0 on a tampered tree and apply --fast disagrees with apply",
}

ROUNDTRIP_TOKENS = [
    ("walsh:5", None),
    ("walsh:6", None),
    ("walsh:7", None),
    ("walsh:8", None),
    ("cbt:3", None),
    ("cbt:4", None),
    ("cbt:5", None),
    ("dft:8", None),
    ("dft:12", None),
    ("dft:16", None),
    ("dft:24", None),
    ("k3", "gf:5:1,1,1"),
    ("k4", None),
    ("k6:2", None),
    ("family:1,1,1,3,2", None),
]
# walsh(t) has width 2^(t-1); k4 is primary (width 1); the family matrix
# K1 x K2(2) x RJT_3 meets the tensor bound 2*(2*1*1)*1
WIDTHS = {"walsh:6": 32, "walsh:7": 64, "walsh:8": 128, "k4": 1, "family:1,1,1,3,2": 4}
# canonical perfect quadriphase sequences exist only at length 8 of these
PERFECT_COUNTS = {6: 0, 7: 0, 8: 32}
EQUIV_VARIANTS = 4
CHEAP_ROUNDTRIPS = ("walsh:5", "cbt:3", "dft:8", "k3", "k4")
CHEAP_WIDTHS = ("k4", "family:1,1,1,3,2")


def _path(workdir, name):
    return os.path.join(workdir, name)


def setup(g, seed, workdir):
    cat, fio, cli = g.catalog, g.fileio, g.cli
    rng = random.Random(f"{NAME}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    for i, (tok, ring) in enumerate(ROUNDTRIP_TOKENS):
        M = cat.from_token(tok, cli.parse_ring_spec(ring) if ring else None)
        x = g.transform.Signal.from_ints(M.ring, [rng.randint(-9, 9) for _ in range(M.order)])
        fio.save_signal(x, _path(workdir, f"rt{i}-x.json"))
    for i, tok in enumerate(WIDTHS):
        fio.save_matrix(cat.from_token(tok), _path(workdir, f"width{i}.json"))

    K4 = cat.k4()
    fio.save_matrix(K4, _path(workdir, "k4.json"))
    fio.save_matrix(cat.walsh(3, g.ring.cyclotomic(4)), _path(workdir, "walsh3-q4.json"))
    perfect = cat.search_perfect_quadriphase(8)
    Perm = g.matrix.Permutation
    for k in range(EQUIV_VARIANTS):
        B = cat.back_circulant(rng.choice(perfect))
        rowp = Perm(tuple(rng.sample(range(8), 8)))
        colp = Perm(tuple(rng.sample(range(8), 8)))
        fio.save_matrix(g.matrix.permute(B, rowp, colp), _path(workdir, f"bc{k}.json"))

    data = fio.matrix_to_json(K4)
    del data["order"]
    _write_json(_path(workdir, "no-order.json"), data)
    W3 = cat.walsh(3)
    data = fio.matrix_to_json(W3)
    leaf = data["tree"]["left"]["left"]["matrix"]["entries"]
    leaf[1][1] = "1/1"  # was -1: the tree no longer expands to the entries
    _write_json(_path(workdir, "tampered.json"), data)
    x3 = g.transform.Signal.from_ints(W3.ring, [rng.randint(-9, 9) for _ in range(8)])
    fio.save_signal(x3, _path(workdir, "x3.json"))
    return {"g": g, "workdir": workdir}


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def round_plan(state, seed, r):
    """Seeded descriptors of round r: (kind, argument)."""
    plan = [("roundtrip", i) for i in range(len(ROUNDTRIP_TOKENS))]
    plan += [("roundtrip", i) for i, (tok, _) in enumerate(ROUNDTRIP_TOKENS) if tok in CHEAP_ROUNDTRIPS]
    plan += [("width", tok) for tok in WIDTHS] + [("width", tok) for tok in CHEAP_WIDTHS]
    plan += [("equiv", (2 * r + k) % EQUIV_VARIANTS) for k in range(2)]
    plan += [("non-equiv", None)]
    plan += [("seqsearch", L) for L in PERFECT_COUNTS]
    plan += [("malformed-order", None), ("malformed-tree", None)]
    random.Random(f"{NAME}:{seed}:{r}").shuffle(plan)
    return plan


def _run_cli(cli, argvs):
    """Run each argv through cli.main; returns [(exit code or exception name, stdout)]."""
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception as ex:  # a traceback is a failed job, not a harness error
                rc = f"raised {type(ex).__name__}"
        out.append((rc, buf.getvalue()))
    return out


def _remove(*paths):
    # outputs of an earlier round must not satisfy this round's checks
    for f in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(f)


def prepare(state, desc):
    kind, arg = desc
    cli = state["g"].cli
    p = lambda name: _path(state["workdir"], name)
    if kind == "roundtrip":
        tok, ring = ROUNDTRIP_TOKENS[arg]
        m, x, y, yf, z = (p(f"rt{arg}-{s}.json") for s in ("m", "x", "y", "yf", "z"))
        _remove(m, y, yf, z)
        argvs = [
            ["gen", tok, "-o", m] + (["--ring", ring] if ring else []),
            ["verify", m],
            ["apply", m, x, "-o", y],
            ["apply", "--fast", m, x, "-o", yf],
            ["invert", m, y, "-o", z],
        ]
        check = lambda res: check_roundtrip(res, x, y, yf, z)
    elif kind == "width":
        argvs = [["width", p(f"width{list(WIDTHS).index(arg)}.json")]]
        check = lambda res: check_exit(res, [0], f"width: {WIDTHS[arg]}")
    elif kind == "equiv":
        argvs = [["equiv", "--normalize", p(f"bc{arg}.json"), p("k4.json")]]
        check = lambda res: check_exit(res, [0], "equivalent: true")
    elif kind == "non-equiv":
        argvs = [["equiv", "--normalize", p("k4.json"), p("walsh3-q4.json")]]
        check = lambda res: check_exit(res, [1], "equivalent: false")
    elif kind == "seqsearch":
        n = PERFECT_COUNTS[arg]
        argvs = [["seqsearch", str(arg)]]
        check = lambda res: check_exit(res, [0 if n else 1], f"perfect-count: {n}")
    elif kind == "malformed-order":
        argvs = [["verify", p("no-order.json")]]
        check = lambda res: check_exit(res, [2])
    elif kind == "malformed-tree":
        t, x3 = p("tampered.json"), p("x3.json")
        _remove(p("tampered-y.json"), p("tampered-yf.json"))
        argvs = [
            ["verify", t],
            ["apply", "--fast", t, x3, "-o", p("tampered-yf.json")],
            ["apply", t, x3, "-o", p("tampered-y.json")],
        ]
        check = lambda res: check_tampered(res, p("tampered-y.json"), p("tampered-yf.json"))
    else:
        raise ValueError(f"unknown cli-jobs op {kind!r}")
    return (lambda: _run_cli(cli, argvs)), check


def check_exit(res, codes, needle=None):
    """Oracle: None when every call exited with `codes` and printed `needle`."""
    got = [rc for rc, _ in res]
    if got != codes:
        return f"exit codes {got}, want {codes}"
    if needle is not None and needle not in res[-1][1].splitlines():
        return f"output lacks {needle!r}"
    return None


def check_roundtrip(res, x, y, yf, z):
    bad = check_exit(res, [0] * 5, None)
    if bad:
        return bad
    if "is-gbh: true" not in res[1][1]:
        return "verify does not report is-gbh: true"
    if _read_json(y)["elements"] != _read_json(yf)["elements"]:
        return "apply --fast disagrees with apply"
    if _read_json(z)["elements"] != _read_json(x)["elements"]:
        return "invert does not return the input"
    return None


def check_tampered(res, y, yf):
    bad = check_exit(res, [2, 2, 2])
    if bad and [rc for rc, _ in res[1:]] == [0, 0]:
        if _read_json(y)["elements"] != _read_json(yf)["elements"]:
            bad += "; apply --fast disagrees with apply"
    return bad
