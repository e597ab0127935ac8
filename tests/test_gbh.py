"""GBH verification, row sums, DFT and B3 constructors."""

import pytest

from ght import (
    GMatrix,
    b3,
    cbt,
    complex_ring,
    cyclotomic,
    dft_matrix,
    equal,
    family,
    k1,
    k3,
    normalize,
    prime_field,
    quadratic_field,
    rationals,
    row_sums,
    tensor,
    verify_gbh,
    walsh,
    k2,
    k4,
)
from ght import gbh
from ght.ring import RingError


def test_walsh_s3():
    rep = verify_gbh(walsh(3))
    assert rep.is_gbh and rep.v == 8 and rep.w == 2 and rep.char_check


def test_b3_is_gbh_3_3():
    rep = verify_gbh(b3(cyclotomic(3)))
    assert rep.is_gbh and rep.v == 3 and rep.w == 3


def test_b3_rows_display():
    ring = cyclotomic(3)
    beta = ring.root_of_unity(3)
    B = b3(ring)
    assert B.row(1) == [ring.one(), beta, beta * beta]
    assert B.row(2) == [ring.one(), beta * beta, beta]


def test_b3_over_gf25():
    f = quadratic_field(5)
    rep = verify_gbh(b3(f))
    assert rep.is_gbh and rep.char_check  # char 5 does not divide 3


def test_all_ones_is_not_gbh():
    M = GMatrix.from_rows(rationals(), [[1, 1], [1, 1]])
    rep = verify_gbh(M)
    assert not rep.is_gbh
    assert (0, 1) in rep.failures and (1, 0) in rep.failures


def test_char_divides_order_fails():
    # order 3 over GF(3): the characteristic check must reject it
    from ght.ring import prime_field

    f = prime_field(3)
    M = GMatrix.from_rows(f, [[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    rep = verify_gbh(M)
    assert not rep.char_check and not rep.is_gbh


def test_row_sums_s2():
    sums, inv_sums = row_sums(walsh(2))
    q = rationals()
    assert sums == [q.from_int(4), q.zero(), q.zero(), q.zero()]
    assert inv_sums == [q.from_int(4), q.zero(), q.zero(), q.zero()]


def test_row_sums_f6():
    F = dft_matrix(6, cyclotomic(6))
    sums, inv_sums = row_sums(F)
    zero = F.ring.zero()
    assert all(s == zero for s in sums[1:])
    assert all(s == zero for s in inv_sums[1:])


def test_row_sums_k6():
    from ght import k6

    K = k6(cyclotomic(3), 2)
    sums, inv_sums = row_sums(K)
    zero = K.ring.zero()
    assert all(s == zero for s in sums[1:])
    assert all(s == zero for s in inv_sums[1:])


def test_dft2_is_s1():
    assert equal(dft_matrix(2, rationals()), k1())


def test_dft4_rows():
    ring = cyclotomic(4)
    F = dft_matrix(4, ring)
    w = ring.root_of_unity(4)
    assert F.row(1) == [ring.one(), w, w ** 2, w ** 3]
    assert verify_gbh(F).is_gbh


def test_dft6_verifies():
    rep = verify_gbh(dft_matrix(6, cyclotomic(6)))
    assert rep.is_gbh and rep.v == 6 and rep.w == 6


def test_dft_symmetric_and_normalised():
    for v in (3, 5, 8):
        F = dft_matrix(v, cyclotomic(v))
        assert F.is_normalised()
        for j in range(v):
            for k in range(v):
                assert F.entry(j, k) == F.entry(k, j)


@pytest.mark.parametrize(
    "v, ring",
    [(v, cyclotomic(v)) for v in (1, 6, 8, 24)] + [(32, prime_field(97)), (16, complex_ring())],
)
def test_dft_unit_table_matches_keyed_construction(v, ring):
    # the construction that keyed all v^2 entries through from_rows
    omega = ring.root_of_unity(v)
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    old = GMatrix.from_rows(ring, [[powers[(j * k) % v] for k in range(v)] for j in range(v)])
    F = dft_matrix(v, ring)
    assert [u.payload for u in F.units] == [u.payload for u in old.units]
    assert F.idx.dtype == old.idx.dtype and (F.idx == old.idx).all()


def test_dft_without_root_raises():
    with pytest.raises(RingError):
        dft_matrix(3, rationals())


def test_tensor_closure():
    ring = cyclotomic(12)
    pairs = [(k2(2, ring), k4(ring)), (b3(ring), dft_matrix(4, ring)), (walsh(2, ring), b3(ring))]
    for A, B in pairs:
        assert verify_gbh(A).is_gbh and verify_gbh(B).is_gbh
        assert verify_gbh(tensor(A, B)).is_gbh


def test_normalize_preserves_gbh_on_scaled_dft():
    from ght import scalar_mul

    ring = cyclotomic(6)
    F = dft_matrix(6, ring)
    M = scalar_mul(ring.root_of_unity(6), F)
    assert verify_gbh(M).is_gbh
    N, _, _ = normalize(M)
    assert verify_gbh(N).is_gbh and N.is_normalised()


def test_entry_order_bound_reports_unknown():
    # entries of infinite order (2 in Q) make w unreportable
    rep = verify_gbh(k2(2))
    assert rep.is_gbh and rep.w is None


def test_report_text_stable_keys():
    text = verify_gbh(walsh(2)).to_text()
    keys = [line.split(":")[0] for line in text.splitlines()]
    assert keys == ["is-gbh", "order", "entry-group-order", "char-check", "failure-count", "method"]
    assert text.splitlines()[0] == "is-gbh: true"
    assert "entry-group-order: 2" in text
    assert text.splitlines()[-1] == "method: numeric-lane"


def _family():
    return family(1, 1, 1, 3, 2, cyclotomic(6))[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: walsh(9),
        lambda: cbt(6, cyclotomic(4)),
        lambda: dft_matrix(24, cyclotomic(24)),
        lambda: dft_matrix(32, prime_field(97)),
        lambda: tensor(k3(quadratic_field(5)), k3(quadratic_field(5))),
        lambda: dft_matrix(16, complex_ring()),
        _family,
    ],
    ids=["walsh9", "cbt6", "dft24", "dft32-gf97", "k3k3-gf25", "dft16-complex", "family-11132"],
)
def test_catalog_matrices_take_the_numeric_lane(build):
    rep = verify_gbh(build())
    assert rep.is_gbh and rep.method == "numeric-lane"


def test_bound_failing_matrix_takes_the_per_entry_route():
    # K2(2^30) has units +-2^30, M* has +-2^-30: v * 2^30 * 2^30 > 2^53
    rep = verify_gbh(k2(2**30))
    assert rep.is_gbh and rep.w is None and rep.method == "per-entry"
    assert rep.to_text().splitlines()[-1] == "method: per-entry"


@pytest.mark.parametrize(
    "build, bound",
    [(_family, 6), (lambda: dft_matrix(32, prime_field(97)), 96), (lambda: dft_matrix(8, complex_ring()), 32)],
    ids=["family-11132", "dft32-gf97", "dft8-complex"],
)
def test_order_walk_bound(monkeypatch, build, bound):
    # exact backends walk at most unit_order_hint() powers, the order of their
    # group of roots of unity; only the complex one walks 2 * v * hint
    M, bounds = build(), set()
    walk = gbh._power_walk
    monkeypatch.setattr(gbh, "_power_walk", lambda u, b: bounds.add(b) or walk(u, b))
    rep = verify_gbh(M)
    assert bounds == {bound}
    assert rep.w == (None if build is _family else M.order)
