"""Traced runs: timing spans and ring-op counters installed from outside.

The package is not instrumented. `Tracer.install` replaces each layer's
public functions with wrappers, in every module that holds a binding to them
(`gbh`, `transform` and `fileio` import names directly), and wraps the
arithmetic methods of `RingElement` and every `RingContext.dot`. `uninstall`
puts the originals back. Wrappers record only inside `Tracer.run`, so the
harness's own input preparation between ops is not counted.

Spans (name, start, end, parent, op) stay in memory; a span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

BACKENDS = {
    "rationals": "rationals",
    "cyclotomic-rationals": "cyclotomic",
    "prime-field": "prime",
    "quadratic-extension-field": "quadratic",
    "complex-float": "complex",
}
RING_COUNTS = ("mul", "add", "inv", "eq", "dot_terms", "elements")
MATRIX_OPS = ("star", "mat_mul", "tensor", "permute", "normalize", "equal", "from_rows")

# (module, function, span name); the span of verify_gbh is split by backend
SPANNED = [
    ("matrix", "star", "matrix.star"),
    ("matrix", "mat_mul", "matrix.mat_mul"),
    ("matrix", "tensor", "matrix.tensor"),
    ("matrix", "permute", "matrix.permute"),
    ("matrix", "normalize", "matrix.normalize"),
    ("matrix", "equal", "matrix.equal"),
    ("gbh", "verify_gbh", "gbh.verify_gbh"),
    ("transform", "ght", "transform.ght"),
    ("transform", "ight", "transform.ight"),
    ("transform", "fast_apply", "transform.fast_apply"),
    ("fileio", "load_matrix", "fileio.load_matrix"),
    ("fileio", "save_matrix", "fileio.save_matrix"),
    ("fileio", "load_signal", "fileio.load_signal"),
    ("fileio", "save_signal", "fileio.save_signal"),
    ("jacket", "jacket_width", "jacket.jacket_width"),
    ("jacket", "perm_equivalent", "jacket.perm_equivalent"),
    ("catalog", "search_perfect_quadriphase", "catalog.search_perfect_quadriphase"),
    ("cli", "main", "cli.main"),
] + [
    (mod, fn, "catalog.build")
    for mod, fn in [
        ("catalog", "walsh"),
        ("catalog", "cbt"),
        ("catalog", "k1"),
        ("catalog", "k2"),
        ("catalog", "k3"),
        ("catalog", "k4"),
        ("catalog", "k6"),
        ("catalog", "family"),
        ("catalog", "back_circulant"),
        ("catalog", "complex_rjt"),
        ("catalog", "from_token"),
        ("gbh", "dft_matrix"),
    ]
]

MODULES = ("ring", "matrix", "gbh", "jacket", "catalog", "transform", "fileio", "cli")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for b in BACKENDS.values():
        out += [(f"ring.{b}.{c}", "count") for c in RING_COUNTS]
    for op in MATRIX_OPS:
        out += [(f"matrix.{op}.calls", "count"), (f"matrix.{op}.self_s", "s")]
    out.append(("matrix.entry.calls", "count"))
    out.append(("gbh.verify_gbh.calls", "count"))
    out += [(f"gbh.verify_gbh.{b}.self_s", "s") for b in BACKENDS.values()]
    for fn in ("ght", "ight", "fast_apply"):
        out += [(f"transform.{fn}.calls", "count"), (f"transform.{fn}.self_s", "s")]
    out.append(("transform.fast_apply.mul", "count"))
    for fn in ("load_matrix", "save_matrix", "load_signal", "save_signal"):
        out.append((f"fileio.{fn}.self_s", "s"))
    out += [("fileio.bytes_read", "B"), ("fileio.bytes_written", "B")]
    for fn in ("jacket_width", "perm_equivalent"):
        out += [(f"jacket.{fn}.calls", "count"), (f"jacket.{fn}.self_s", "s")]
    out += [
        ("catalog.build.self_s", "s"),
        ("catalog.search_perfect_quadriphase.self_s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("cli.exit2.count", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # [name, start, end, parent index, op]
        self._stack = []  # (span index, child time accumulator)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._patched = []

    def run(self, fn):
        """fn() with recording on."""
        self.active = True
        try:
            return fn()
        finally:
            self.active = False

    # --- spans ---

    def _span(self, name, call, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        rec = [name, perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        frame = [idx, 0.0]
        self._stack.append(frame)
        try:
            return call(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            dur = rec[2] - rec[1]
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, name, fn):
        tracer = self
        before, after = {
            "fileio.load_matrix": (self._bytes_read, None),
            "fileio.load_signal": (self._bytes_read, None),
            "fileio.save_matrix": (None, self._bytes_written),
            "fileio.save_signal": (None, self._bytes_written),
            "transform.fast_apply": (None, self._fast_apply_mul),
            "cli.main": (None, self._exit2),
        }.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name
            if name == "gbh.verify_gbh":
                span = f"{name}.{BACKENDS[args[0].ring.spec.kind]}"
            if before is not None:
                before(*args)
            result = tracer._span(span, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _fast_apply_mul(self, result, *args):
        self.counts["transform.fast_apply.mul"] += result[1].mul

    def _exit2(self, result, *args):
        if result == 2:
            self.counts["cli.exit2.count"] += 1

    def _bytes_read(self, path, *args):
        self.counts["fileio.bytes_read"] += _size(path)

    def _bytes_written(self, result, obj, path, *args):
        self.counts["fileio.bytes_written"] += _size(path)

    # --- ring counters ---

    def _counted(self, fn, what, ring_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                b = BACKENDS[ring_of(*args).spec.kind]
                tracer.counts[f"ring.{b}.{what}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_dot(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ctx, pairs):
            if not tracer.active:
                return fn(ctx, pairs)
            pairs = list(pairs)
            tracer.counts[f"ring.{BACKENDS[ctx.spec.kind]}.dot_terms"] += len(pairs)
            return fn(ctx, pairs)

        return wrapper

    # --- installation ---

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self, g):
        """Patch the package modules held by namespace `g`."""
        mods = [g.pkg] + [getattr(g, m) for m in MODULES]
        for modname, fname, span in SPANNED:
            orig = getattr(getattr(g, modname), fname)
            wrapper = self._wrap(span, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapper)

        GMatrix = g.matrix.GMatrix
        from_rows = GMatrix.__dict__["from_rows"].__func__
        self._set(GMatrix, "from_rows", classmethod(self._wrap("matrix.from_rows", from_rows)))
        entry = GMatrix.entry
        tracer = self

        def counted_entry(M, i, j):
            if tracer.active:
                tracer.counts["matrix.entry.calls"] += 1
            return entry(M, i, j)

        self._set(GMatrix, "entry", counted_entry)

        El = g.ring.RingElement
        own = lambda el, *rest: el.ring
        for attr, what in (
            ("__add__", "add"),
            ("__radd__", "add"),
            ("__sub__", "add"),
            ("__rsub__", "add"),
            ("__mul__", "mul"),
            ("__rmul__", "mul"),
            ("__eq__", "eq"),
            ("inverse", "inv"),
        ):
            self._set(El, attr, self._counted(El.__dict__[attr], what, own))
        self._set(
            El, "__init__",
            self._counted(El.__dict__["__init__"], "elements", lambda el, ring, payload: ring),
        )
        for ctx in _subclasses(g.ring.RingContext):
            if "dot" in ctx.__dict__:
                self._set(ctx, "dot", self._counted_dot(ctx.__dict__["dot"]))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    # --- results ---

    def metrics(self):
        """Per-layer values keyed like `per_layer_names`, overhead excluded."""
        out = {}
        for name, _unit in per_layer_names():
            if name in self.counts:
                out[name] = self.counts[name]
            elif name.endswith(".calls"):
                base = name[: -len(".calls")]
                out[name] = sum(
                    n for k, n in self.calls.items() if k == base or k.startswith(base + ".")
                )
            elif name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            else:
                out[name] = 0
        return out

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:  # a load of a missing file fails in the package itself
        return 0


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out
