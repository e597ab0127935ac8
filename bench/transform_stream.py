"""transform-stream: forward and inverse transforms over a fixed matrix set.

The matrices are built once at set-up and every op reuses them. An op takes a
seeded signal, applies the forward transform (`fast_apply` when the matrix
has a factor tree, `ght` when it has none) and then `ight`, and requires the
round trip to return the signal exactly (the complex backend within its
tolerance) and `fast_apply` to count v * sum(v_i) multiplications.

A round has 24 ops: every matrix at least once and the cheap ones up to five
times, so that a run of five rounds has 120 ops and p50 and p90 fall inside
a cost class rather than on the edge between two. Six ops in each round, one
per matrix of order <= 256, get signals with non-integer entries, which skip
the +-1 integer fast path; walsh(9..12) get integer signals only, because an
object-lane `ight` on them takes minutes.

transform and ring dot/mul do the work and gbh does none. Work is shared
across ops, so per-matrix reuse (star, leaf rows, a flattened factor list)
shows here and not in verify-mix.
"""

from __future__ import annotations

import random

NAME = "transform-stream"
ROUNDS = 5  # per run: at least 100 ops, so that ten lie beyond p90
KNOWN_DEFECTS = {}
FRACTION_MAX_ORDER = 256
SLOTS = {  # ops per round
    "walsh8": 3,
    "walsh9": 3,
    "family-11132": 2,
    "k3k3-gf25": 4,
    "cbt5": 2,
    "dft24": 2,
    "dft16-complex": 5,
}


def setup(g, seed, workdir):
    ring, cat, gbh = g.ring, g.catalog, g.gbh
    gf25 = ring.quadratic_field(5)
    mats = {}  # name -> (matrix, sum of the tensor factor orders or None)
    for t in range(8, 13):
        mats[f"walsh{t}"] = (cat.walsh(t), 2 * t)
    mats["family-11132"] = (cat.family(1, 1, 1, 3, 2, ring.cyclotomic(6))[0], 2 + 4 + 6)
    mats["k3k3-gf25"] = (g.matrix.tensor(cat.k3(gf25), cat.k3(gf25)), 6 + 6)
    mats["cbt5"] = (cat.cbt(5), None)
    mats["dft24"] = (gbh.dft_matrix(24, ring.cyclotomic(24)), None)
    mats["dft16-complex"] = (gbh.dft_matrix(16, ring.complex_ring()), None)
    return {"g": g, "mats": mats}


def round_plan(state, seed, r):
    """Seeded descriptors of round r: (kind, matrix, values).

    values are ints, or (a, b, d) triples for a non-integer entry
    (a + b*u) / d, u a unit of the ring outside the integers where one exists.
    """
    rng = random.Random(f"{NAME}:{seed}:{r}")
    mats = state["mats"]
    slots = []
    for name, (M, _) in mats.items():
        n = SLOTS.get(name, 1)
        fraction = M.order <= FRACTION_MAX_ORDER
        slots += [(name, fraction)] + [(name, False)] * (n - 1)
    rng.shuffle(slots)
    plan = []
    for name, fraction in slots:
        M, factors = mats[name]
        lane = "fast" if factors else "naive"
        if fraction:
            vals = tuple(
                (rng.randint(-9, 9), rng.randint(-9, 9), rng.choice((2, 3, 5, 7)))
                for _ in range(M.order)
            )
            plan.append((f"{lane}-fraction", name, vals))
        else:
            vals = tuple(rng.randint(-50, 50) for _ in range(M.order))
            plan.append((f"{lane}-integer", name, vals))
    return plan


def _element(ring, u, val):
    if isinstance(val, int):
        return ring.from_int(val)
    a, b, d = val
    num = ring.from_int(a) + ring.from_int(b) * u
    return num * ring.int_inverse(d) if ring.characteristic() == 0 else num


def _unit(g, ring):
    """A unit outside the integers (a cube or fourth root of unity); 1 in Q."""
    for w in (3, 4):
        try:
            return ring.root_of_unity(w)
        except g.ring.RingError:
            pass
    return ring.one()


def prepare(state, desc):
    kind, name, vals = desc
    g = state["g"]
    M, factors = state["mats"][name]
    ring = M.ring
    u = _unit(g, ring)
    x = g.transform.Signal(ring, tuple(_element(ring, u, v) for v in vals))
    tf = g.transform

    def call():
        if factors:
            y, count = tf.fast_apply(M.tree, x)
        else:
            y, count = tf.ght(M, x), None
        return tf.ight(M, y), count

    want_mul = M.order * factors if factors else None
    return call, (lambda res: check_round_trip(x, res[0], res[1], want_mul))


def check_round_trip(x, back, count, want_mul):
    """Oracle: None when ight(forward(x)) == x and the op count is v*sum(v_i)."""
    if back != x:
        return "round trip does not return the input"
    if want_mul is not None and count.mul != want_mul:
        return f"fast_apply counted {count.mul} multiplications, want {want_mul}"
    return None
