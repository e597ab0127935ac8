"""Text file formats for matrices and signals.

Both formats are JSON with a ring-spec header and per-backend element
encodings: rationals as "p/q" strings, cyclotomic elements as coefficient
lists of such strings, field elements as integer coefficient lists, complex
as [re, im] float pairs. Exact backends round-trip bit-exactly.

A matrix file takes one of two forms:
- tree-only, {"ring", "order", "tree"}: save_matrix writes this for a matrix
  that carries a factor tree. Entries appear only in the leaves, so walsh(12)
  takes about 2 KB and cbt(12), a tree of doubling nodes
  {"kind": "double", "top", "bottom"} (with "columns": true for the column
  form of a starred one), about 15 KB; a DFT is the generator
  {"kind": "dft", "order": v}, which loads as gbh.dft_matrix(v, ring), the
  table of gbh.DftNode(ring, v).
  The loader expands the tree, so nothing can contradict it, and returns
  the expansion, whose tree is the file's (TensorNode.expand): the left-deep
  chain of a walsh:12 file is expanded balanced, its units checked at once
  and its index left pending (ght.matrix), written by blocks on first read.
  Identical leaves load as one.
- with entries, {"ring", "order", "entries", "tree"}: save_matrix writes this
  for a matrix without a tree, and matrix_to_json always does. A tree given
  here must expand to exactly the entries (matrix.tree_matches).
A tree is written and read node by node, each by the class of its kind
(FactorTree.to_json and from_json, found by "kind" in NODE_KINDS), and this
module keeps the rules of the format in one reader per file (_TreeReader),
which decodes the top matrix and every leaf over the ring of the header, the
one object of its spec (ght.ring.make_ring), so a loaded matrix holds each
unit once; a leaf whose "ring" names another ring is refused. The declared
order may not exceed ORDER_LIMIT (4096); the loader checks it before it
decodes an entry or builds a tree. Nor may any tree node's order exceed the
declared one, checked as the tree is read, so a generator is checked before
it is built; each half of a double node is within half the limit of its node,
and the halves have one order. A leaf holds its matrix with entries and no
tree, so its work is bounded by the entries in the file. Both formats are
written by json.dumps, on one line, and replace a file only once written.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np

from .butterfly import DoubleNode
from .gbh import DftNode
from .matrix import GMatrix, Leaf, MatrixError, Permutation, PermutedNode, TensorNode
from .matrix import ORDER_LIMIT, _unit_table, tree_matches, within_limit
from .ring import RingError, RingSpec, make_ring
from .transform import Signal


def ring_spec_to_json(spec: RingSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.w is not None:
        out["w"] = spec.w
    if spec.p is not None:
        out["p"] = spec.p
    if spec.ext_poly is not None:
        out["ext-poly"] = list(spec.ext_poly)
    if spec.tol is not None:
        out["tol"] = spec.tol
    return out


def ring_spec_from_json(data: dict) -> RingSpec:
    try:
        return RingSpec(
            kind=data["kind"],
            w=within_limit(data.get("w"), "cyclotomic w"),
            p=data.get("p"),
            ext_poly=tuple(data["ext-poly"]) if "ext-poly" in data else None,
            tol=data.get("tol"),
        )
    except (KeyError, TypeError) as ex:
        raise RingError(f"malformed ring spec: {ex}")


def _field(data, key):
    try:
        return data[key]
    except (KeyError, TypeError):
        raise MatrixError(f"malformed file: no {key!r} field") from None


def _listed(items, what, length):
    """items, when it is a list of `length` values."""
    if not isinstance(items, list) or len(items) != length:
        raise MatrixError(f"malformed file: {what} is not a list of {length} items")
    return items


# the node kinds a file may name, each read by its class's from_json
NODE_KINDS = {cls.kind: cls for cls in (Leaf, TensorNode, PermutedNode, DoubleNode, DftNode)}


class _TreeReader:
    """The one decoder of a matrix file, over its one ring: matrix decodes
    the top matrix and every leaf of its tree, and a node kind's from_json
    asks the reader for the nodes and fields under it, none above the order
    limit. A tensor node's right factor gets the limit over its left
    factor's order, and each half of a double node half the limit, so that
    a few bytes of generators cannot ask for more work than one matrix of
    order limit. Identical leaves share one node (leaves, by the repr of
    their JSON), so that the t leaves of a walsh:t file are one matrix,
    whose products verify_gbh and the transforms form once; a shared leaf
    meets the order limit of each place it takes. Every leaf, generator
    and expansion is over the header's ring, the one object of its spec, so
    a loaded matrix holds each of its units once."""

    def __init__(self, ring, limit, leaves):
        self.ring, self.limit, self.leaves = ring, limit, leaves

    def matrix(self, data):
        """Decode a matrix from either file form over the reader's ring; a
        declared order that is not a number (true is not) from 0 to the
        limit is rejected first, and no tree node may exceed that order.

        A tree-only file (a tree and no "entries") is the expansion of its
        tree, whose order must be the declared one; its units are checked,
        and its index, pending, is read only to name the place of a bad
        unit. Otherwise the factor tree, if any, must expand to exactly the
        entries, and the decoded elements of the entries (see _decoded)
        make the units."""
        v = _field(data, "order")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v <= self.limit:
            raise MatrixError(f"declared order {v!r} is not a number up to the limit {self.limit}")
        tree = None if data.get("tree") is None else _TreeReader(self.ring, v, self.leaves).node(data, "tree")
        if "entries" not in data and tree is not None:
            if tree.order != v:
                raise MatrixError(f"the factor tree has order {tree.order}, not the declared {v}")
            E = tree.expand()
            E._validate_units()
            # every node's expansion carries the node, but a leaf's matrix has no tree
            return E if E.tree is tree else GMatrix._table(self.ring, E.units, E.idx, tree=tree)
        entries = _field(data, "entries")
        if not isinstance(entries, list) or len(entries) != v:
            raise MatrixError("entry grid does not match the declared order")
        decoded, codes = _decoded(self.ring, (e for row in entries for e in _listed(row, "an entry row", v)))
        units, unit_codes = _unit_table(decoded)
        n = len(entries)  # equals v, which JSON may give as 2.0 for 2
        M = GMatrix._table(self.ring, units, unit_codes[np.array(codes, dtype=np.intp)].reshape(n, n), tree=tree)
        M._validate_units()
        if tree is not None and not tree_matches(tree, M):
            raise MatrixError("the factor tree does not expand to the matrix entries")
        return M

    def node(self, data, key, beside=1):
        """The node data[key], read by the class of its kind, within the
        limit over beside: the order of the tensor factor left of it, or 2
        for a half of a double node."""
        data, limit = _field(data, key), self.limit // max(beside, 1)
        kind = _field(data, "kind")
        cls = NODE_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise MatrixError(f"unknown tree node kind {kind!r}")
        read = self if limit == self.limit else _TreeReader(self.ring, limit, self.leaves)
        tree = cls.from_json(data, read)
        if tree.order > limit:
            raise MatrixError(f"a factor tree node has order {tree.order}, above {limit}")
        return tree

    def order(self, data):
        """A generator's order, an int within the limit."""
        v = _field(data, "order")
        if type(v) is not int or v > self.limit:
            raise MatrixError(f"malformed file: {data['kind']} order {v!r} is not an int up to {self.limit}")
        return v

    def flag(self, data, key):
        """data[key], a JSON boolean, or false where it is absent."""
        value = data.get(key, False)
        if type(value) is not bool:
            raise MatrixError(f"malformed file: {key!r} is not a boolean")
        return value

    def permutation(self, data, key):
        image = _field(data, key)
        if not isinstance(image, list) or not all(type(i) is int for i in image):
            raise MatrixError(f"malformed file: {key!r} is not a list of indices")
        return Permutation(tuple(image))

    def leaf(self, data):
        """The leaf node of data's "matrix", one per identical leaf: a
        matrix with entries and no tree, over the file's ring."""
        matrix = _field(data, "matrix")
        if isinstance(matrix, dict) and matrix.get("tree") is not None:
            raise MatrixError("malformed file: a tree leaf's matrix has a tree of its own")
        # the leaves' orders multiply, so only a leaf whose order squared is
        # within ORDER_LIMIT can recur; a larger one is not keyed, as the
        # repr of an order-1024 leaf costs a fifth of its load
        rows = matrix.get("entries") if isinstance(matrix, dict) else None
        key = repr(matrix) if isinstance(rows, list) and len(rows) ** 2 <= ORDER_LIMIT else None
        tree = self.leaves.get(key)
        if tree is None:
            if make_ring(ring_spec_from_json(_field(matrix, "ring"))) is not self.ring:
                raise MatrixError("a tree leaf is not over the matrix ring")
            tree = Leaf(self.matrix(matrix))
            if key is not None:
                self.leaves[key] = tree
        return tree


def _header(M: GMatrix) -> dict:
    return {"ring": ring_spec_to_json(M.ring.spec), "order": M.order}


def matrix_to_json(M: GMatrix, with_tree=True) -> dict:
    """The form with entries, which also lists the tree unless with_tree is
    false."""
    encoded = [M.ring.encode(u) for u in M.units]
    return dict(
        _header(M),
        entries=[[encoded[k] for k in row] for row in M.idx.tolist()],
        tree=M.tree.to_json(_leaf_to_json) if with_tree and M.tree is not None else None,
    )


def _leaf_to_json(M):
    return matrix_to_json(M, with_tree=False)


def matrix_from_json(data: dict) -> GMatrix:
    """Decode a matrix from either file form (_TreeReader.matrix) over the
    ring of its header, its declared order up to ORDER_LIMIT."""
    return _TreeReader(make_ring(ring_spec_from_json(_field(data, "ring"))), ORDER_LIMIT, {}).matrix(data)


def _decoded(ring, encodings):
    """(elements, codes): each distinct encoding decoded once, keyed by its
    repr so that 1, 1.0, true and "1" stay apart, and per encoding the
    position of its element."""
    first = {}  # repr of an encoding -> (its code, the encoding)
    codes = [first.setdefault(repr(e), (len(first), e))[0] for e in encodings]
    return [ring.decode(e) for _, e in first.values()], codes


def save_matrix(M: GMatrix, path):
    """Write M tree-only when it carries a factor tree, else with entries."""
    data = matrix_to_json(M) if M.tree is None else dict(_header(M), tree=M.tree.to_json(_leaf_to_json))
    _write_json(data, path)


def _write_json(data, path):
    """data as one line of JSON: json.dumps takes the C encoder, which
    json.dump never does, and writes the same bytes. The text is encoded
    first, and a regular file (through symbolic links) is written as a new
    file beside it that then replaces it, so that a failed encode or write
    leaves it as it was; the new file has open(path, "w")'s mode, 0o666
    less the umask, or the mode of the file it replaces."""
    text = json.dumps(data) + "\n"
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fh:  # a device or a pipe, as /dev/stdout
            fh.write(text)
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _load(path, what, from_json):
    """from_json of the file's JSON; JSON or a factor tree nested deeper than
    the interpreter's recursion limit is malformed input."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except json.JSONDecodeError as ex:
            raise MatrixError(f"{path}: invalid {what} file at {ex.pos}: {ex.msg}")
        except RecursionError:
            raise MatrixError(f"{path}: {what} file nested too deeply") from None


def load_matrix(path) -> GMatrix:
    return _load(path, "matrix", matrix_from_json)


def signal_to_json(x: Signal) -> dict:
    """The signal's JSON; each distinct element object is encoded once, and
    the entries it fills share that encoding (a transform's output shares
    one object per distinct value)."""
    encodings = {}  # id of an element -> its encoding
    for e in x.elements:
        if id(e) not in encodings:
            encodings[id(e)] = x.ring.encode(e)
    return {
        "ring": ring_spec_to_json(x.ring.spec),
        "length": x.length,
        "elements": [encodings[id(e)] for e in x.elements],
    }


def signal_from_json(data: dict) -> Signal:
    ring = make_ring(ring_spec_from_json(_field(data, "ring")))
    n = _field(data, "length")
    if isinstance(n, bool):
        raise MatrixError(f"malformed file: length {n!r} is not a number")
    elems = _listed(_field(data, "elements"), "the element list", n)
    decoded, codes = _decoded(ring, elems)
    return Signal(ring, tuple(decoded[k] for k in codes))


def save_signal(x: Signal, path):
    _write_json(signal_to_json(x), path)


def load_signal(path) -> Signal:
    return _load(path, "signal", signal_from_json)
