"""Ring backend tests: construction, canonical roots, axioms, encodings."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ght import ring as ring_module
from ght.ring import (
    RingElement,
    RingError,
    _order_exact,
    complex_ring,
    cyclotomic,
    cyclotomic_polynomial,
    is_prime,
    make_ring,
    prime_field,
    quadratic_field,
    rationals,
    RingSpec,
)


def test_cyclotomic_polynomials_low_orders():
    # ascending coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6, 8, 9, 12, 15])
def test_cyclotomic_roots_numerically(w):
    # every root of Phi_w must be a primitive w-th root of unity
    coeffs = cyclotomic_polynomial(w)
    for k in range(1, w + 1):
        z = cmath.exp(2j * cmath.pi * k / w)
        val = sum(c * z ** i for i, c in enumerate(coeffs))
        primitive = all((k * d) % w for d in range(1, w))
        if primitive:
            assert abs(val) < 1e-9
        else:
            assert abs(val) > 1e-6


def test_make_ring_examples():
    r = make_ring(RingSpec(kind="cyclotomic-rationals", w=6))
    assert r.deg == 2 and r.phi == (1, -1, 1)
    f = make_ring(RingSpec(kind="quadratic-extension-field", p=5, ext_poly=(1, 1, 1)))
    assert f.p == 5  # 25 elements
    q = make_ring(RingSpec(kind="rationals"))
    assert q.from_int(2).inverse() == q.element(Fraction(1, 2))


def test_make_ring_errors():
    with pytest.raises(RingError):
        prime_field(6)
    with pytest.raises(RingError):
        quadratic_field(5, (4, 0, 1))  # y^2 + 4 = (y-1)(y+1) mod 5
    with pytest.raises(RingError):
        cyclotomic(0)
    with pytest.raises(RingError):
        quadratic_field(5, (1, 1, 2))  # not monic
    # specs without the numbers their kind needs
    for spec in (
        RingSpec(kind="cyclotomic-rationals"),
        RingSpec(kind="prime-field"),
        RingSpec(kind="quadratic-extension-field", ext_poly=(1, 1, 1)),
        RingSpec(kind="quadratic-extension-field", p=5),
    ):
        with pytest.raises(RingError):
            make_ring(spec)


def test_is_prime_matches_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [is_prime(k) for k in range(n)] == sieve
    # a strong pseudoprime to the first 12 prime bases, which base 41 exposes
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # the first strong pseudoprime to all 13 bases: beyond what they decide
    for p in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(RingError):
            prime_field(p)
        with pytest.raises(RingError):
            quadratic_field(p, (1, 0, 1))


def test_quadratic_irreducibility_matches_root_search():
    for p in (2, 3, 5, 7, 11, 13):
        for c0 in range(p):
            for c1 in range(p):
                if any((t * t + c1 * t + c0) % p == 0 for t in range(p)):
                    with pytest.raises(RingError):
                        quadratic_field(p, (c0, c1, 1))
                else:
                    assert quadratic_field(p, (c0, c1, 1)).spec.ext_poly == (c0, c1, 1)


def test_large_prime_rings_build_quickly():
    # trial division up to sqrt(p) and a loop over all p residues would each
    # take minutes at p = 2^61 - 1; y^2 + 1 is irreducible as p = 3 mod 4
    start = time.perf_counter()
    assert prime_field(2**61 - 1).characteristic() == 2**61 - 1
    assert quadratic_field(2**61 - 1, (1, 0, 1)).p == 2**61 - 1
    assert time.perf_counter() - start < 1


def test_root_of_unity_cyclotomic():
    r = cyclotomic(6)
    z = r.root_of_unity(6)
    assert z ** 3 == r.from_int(-1)
    assert z ** 2 == z - 1
    for d in (1, 2, 3, 6):
        el = r.root_of_unity(d)
        assert _order_exact(el, d, r.one())
    with pytest.raises(RingError):
        r.root_of_unity(5)


def test_root_of_unity_odd_cyclotomic_has_minus_one():
    r = cyclotomic(3)
    assert r.root_of_unity(2) == r.from_int(-1)
    assert _order_exact(r.root_of_unity(6), 6, r.one())


def test_root_of_unity_gf25():
    f = quadratic_field(5)
    a = f.root_of_unity(6)
    assert _order_exact(a, 6, f.one())
    # it is the fourth power of some primitive root of GF(25)
    prim = [
        f.element((i % 5, i // 5))
        for i in range(1, 25)
        if _order_exact(f.element((i % 5, i // 5)), 24, f.one())
    ]
    assert any(g ** 4 == a for g in prim)


def test_root_of_unity_rationals():
    q = rationals()
    assert q.root_of_unity(2) == q.from_int(-1)
    with pytest.raises(RingError):
        q.root_of_unity(3)


def test_root_of_unity_divisible_by_characteristic():
    with pytest.raises(RingError):
        prime_field(5).root_of_unity(5)


def test_cube_root_relation():
    for ring in (cyclotomic(3), cyclotomic(6), quadratic_field(5), complex_ring()):
        b = ring.root_of_unity(3)
        assert (b * b + b + 1).is_zero()


def test_inverse_of_sixth_root():
    r = cyclotomic(6)
    z = r.root_of_unity(6)
    assert z.inverse() == z ** 5


def test_cyclotomic_root_inverses_by_table(monkeypatch):
    for w in range(1, 41):
        ring = cyclotomic(w)
        roots, index = ring_module._root_table(w)
        assert len(roots) == len(index) == ring.unit_order_hint()
        for root in roots:
            assert ring._inv(root) == ring._euclid_inverse(root)
    ring = cyclotomic(12)
    euclid = []
    inverse = ring._euclid_inverse
    monkeypatch.setattr(ring, "_euclid_inverse", lambda a: euclid.append(a) or inverse(a))
    x = ring.root_of_unity(12)
    for u in (x, x**5, -x, ring.one()):
        assert u * u.inverse() == ring.one()
    assert euclid == []
    for u in (ring.from_int(2), x + 1):
        assert u * u.inverse() == ring.one()
    assert euclid == [ring.from_int(2).payload, (x + 1).payload]


def test_cyclotomic_tables_are_shared_by_w():
    a, b = cyclotomic(24), cyclotomic(24)
    assert a is not b
    assert a.root_powers(24)[5].payload is b.root_powers(24)[5].payload
    assert ring_module._fold_table(24) is ring_module._fold_table(24)
    assert ring_module._root_table(24) is ring_module._root_table(24)


def _fold_by_reduction(w):
    """Reference: each x^m reduced modulo Phi_w afresh, as a float table."""
    ring = cyclotomic(w)
    fold = np.array([ring._reduce([0] * m + [1]) for m in range(2 * ring.deg - 1)], dtype=np.float64)
    return fold, np.abs(fold).cumsum(axis=0).max(axis=1)


@pytest.mark.parametrize("w", list(range(1, 61)) + [105, 120, 143, 180, 210])
def test_fold_table_matches_the_reduction_of_each_power(w):
    fold, growth = ring_module._fold_table(w)
    want_fold, want_growth = _fold_by_reduction(w)
    assert fold.dtype == np.float64 and np.array_equal(fold, want_fold)
    assert np.array_equal(growth, want_growth)


def _root_by_power(ring, v):
    """Reference: the canonical order-v root of Q(zeta_w) as x ** k, with
    -x ** k for an even v that does not divide an odd w."""
    w = ring.w
    if ring.deg == 1:  # w in {1, 2}: x is congruent to a rational
        x = ring.from_int(-ring.phi[0])
    else:
        x = ring.element((tuple(int(k == 1) for k in range(ring.deg)), 1))
    if w % v == 0:
        return x ** (w // v)
    # -x^k evaluates to exp(-2 pi i (2k + w) / (2w)), which is exp(-pi i / e)
    # for e = v / 2 at k = (w / e)(1 - e) / 2
    e = v // 2
    return -(x ** ((w // e) * (1 - e) // 2 % w))


def _products(ring, omega, v):
    """Reference: [1, omega, omega^2, ..., omega^(v-1)], one product each."""
    powers = [ring.one()]
    for _ in range(v - 1):
        powers.append(powers[-1] * omega)
    return powers


def _roots_by_product(ring):
    """Reference: g^0..g^(h-1) for the generator g = x (even w) or -x (odd
    w) of the roots of unity, one _mul each; g^k is index k (w + 2) of the
    roots for odd w, as -x is sent to exp(-2 pi i (w + 2) / (2 w))."""
    x = _root_by_power(ring, ring.w).payload
    g = x if ring.w % 2 == 0 else ring._neg(x)
    powers = [ring._from_int(1)]
    for _ in range(ring.unit_order_hint() - 1):
        powers.append(ring._mul(g, powers[-1]))
    return powers


@pytest.mark.parametrize("w", range(1, 200))
def test_root_tables_match_the_power_and_product_references(w):
    ring = cyclotomic(w)
    h = ring.unit_order_hint()
    for v in (v for v in range(1, h + 1) if h % v == 0):
        omega = _root_by_power(ring, v)
        assert ring.root_of_unity(v) == omega
        assert ring.root_powers(v) == _products(ring, omega, v)
    with pytest.raises(RingError):
        ring.root_of_unity(h + 1)
    sequential = _roots_by_product(ring)
    roots, index = ring_module._root_table(w)
    step = 1 if w % 2 == 0 else w + 2
    assert [roots[k * step % h] for k in range(h)] == sequential
    assert index == {u: k for k, u in enumerate(roots)}
    assert [ring._order(u) for u in sequential] == [h // math.gcd(h, k) for k in range(h)]
    assert [ring._inv(u) for u in sequential] == [sequential[-k] for k in range(h)]
    # row m of the fold table is x^j for j = m mod w: g^j, or (-1)^j g^j for
    # odd w
    fold, growth = ring_module._fold_table(w)
    rows = [sequential[m % w][0] for m in range(len(fold))]
    signs = [-1 if w % 2 and m % w % 2 else 1 for m in range(len(fold))]
    want = np.array([[c * sign for c in row] for row, sign in zip(rows, signs)], dtype=np.float64)
    assert np.array_equal(fold, want.reshape(fold.shape))
    assert np.array_equal(growth, np.abs(want).cumsum(axis=0).max(axis=1))


@pytest.mark.parametrize(
    "ring",
    [rationals(), prime_field(7), prime_field(13), quadratic_field(5), quadratic_field(7, (1, 0, 1))],
    ids=repr,
)
def test_root_powers_are_the_sequential_products(ring):
    h = ring.unit_order_hint()
    for v in (v for v in range(1, h + 1) if h % v == 0):
        assert ring.root_powers(v) == _products(ring, ring.root_of_unity(v), v)
    with pytest.raises(RingError):
        ring.root_powers(h + 1)


def test_complex_root_powers_are_exact_angles():
    c = complex_ring(0)
    for v in (1, 6, 4095):
        assert [u.payload for u in c.root_powers(v)] == [cmath.exp(-2j * cmath.pi * k / v) for k in range(v)]
    with pytest.raises(RingError):
        c.root_powers(0)


def _trial_primes(n):
    """Reference: the distinct primes of n by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] * (n > 1)


@settings(max_examples=300)
@given(st.integers(1, 10**7 - 1))
# pieces past trial division: a product of two primes above 2^10, a square
@example(1031 * 1033)
@example(1031**2 * 2)
@example(1031 * 1033 * 9)
def test_prime_factors_match_trial_division(n):
    assert ring_module._prime_factors(n) == tuple(_trial_primes(n))


def test_prime_factors_of_large_products():
    # rho splits semiprimes of two 20-bit and of two 31-bit primes, and a
    # cube times a prime
    for a, b in ((1048573, 1048583), (2147483629, 2**31 - 1)):
        assert is_prime(a) and is_prime(b)
        assert ring_module._prime_factors(a * b) == (a, b)
    assert ring_module._prime_factors(1048573**3 * 1048583) == (1048573, 1048583)
    # p^2 - 1 is factored through p - 1 and p + 1
    p = 1000003
    assert ring_module._prime_factors(p - 1, p + 1) == tuple(_trial_primes(p * p - 1))


@pytest.mark.parametrize("p, ext", [(5, (1, 1, 1)), (7, (1, 0, 1)), (13, (2, 1, 1))])
def test_quadratic_inverse_is_the_conjugate_over_the_norm(monkeypatch, p, ext):
    f = quadratic_field(p, ext)
    els = [f.element((a, b)) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    inverses = [el.inverse() for el in els]
    assert all(el * inv == f.one() for el, inv in zip(els, inverses))
    monkeypatch.setattr(RingElement, "__pow__", lambda *a: pytest.fail("power taken"))
    assert [el.inverse() for el in els] == inverses


@pytest.mark.parametrize(
    "ring",
    [prime_field(1000003), prime_field(100000007), prime_field(2**61 - 1), quadratic_field(1000003, (1, 0, 1))],
    ids=repr,
)
def test_roots_of_unity_of_large_fields(ring):
    # the old scan for the first payload of order w passed about p payloads
    start = time.perf_counter()
    h = ring.unit_order_hint()
    for w in (1, 2, h // 2, h):
        assert _order_exact(ring.root_of_unity(w), w, ring.one())
    for w in (4, 8, 3):
        if h % w == 0:
            assert _order_exact(ring.root_of_unity(w), w, ring.one())
    with pytest.raises(RingError):
        ring.root_of_unity(h + 1)
    assert time.perf_counter() - start < 1


def test_int_inverse():
    assert cyclotomic(6).int_inverse(6) == cyclotomic(6).element(
        cyclotomic(6)._from_fractions([Fraction(1, 6), Fraction(0)])
    )
    with pytest.raises(RingError):
        prime_field(3).int_inverse(6)
    with pytest.raises(RingError):
        rationals().int_inverse(0)


def test_inverse_of_zero_raises():
    for ring in (rationals(), cyclotomic(4), prime_field(7), quadratic_field(5)):
        with pytest.raises(RingError):
            ring.zero().inverse()


rational_elems = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
).map(lambda f: rationals().element(f))


def cyclo_elems(w):
    ring = cyclotomic(w)
    coeff = st.integers(min_value=-5, max_value=5)
    return st.lists(coeff, min_size=ring.deg, max_size=ring.deg).map(
        lambda cs: ring.element(ring._normalize(cs, 1))
    )


def gf7_elems():
    return st.integers(min_value=0, max_value=6).map(prime_field(7).element)


def gf25_elems():
    f = quadratic_field(5)
    return st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
    ).map(f.element)


@settings(max_examples=60, deadline=None)
@given(rational_elems, rational_elems, rational_elems)
def test_axioms_rationals(a, b, c):
    _check_axioms(a, b, c)


@settings(max_examples=60, deadline=None)
@given(cyclo_elems(6), cyclo_elems(6), cyclo_elems(6))
def test_axioms_cyclotomic(a, b, c):
    _check_axioms(a, b, c)


@settings(max_examples=60, deadline=None)
@given(gf25_elems(), gf25_elems(), gf25_elems())
def test_axioms_gf25(a, b, c):
    _check_axioms(a, b, c)


@settings(max_examples=60, deadline=None)
@given(gf7_elems(), gf7_elems(), gf7_elems())
def test_axioms_gf7(a, b, c):
    _check_axioms(a, b, c)


complex_elems = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
).map(lambda z: complex_ring().element(z))


@settings(max_examples=60, deadline=None)
@given(complex_elems, complex_elems, complex_elems)
def test_axioms_complex(a, b, c):
    _check_axioms(a, b, c)


def _check_axioms(a, b, c):
    ring = a.ring
    assert ring.characteristic() == (ring.spec.p or 0)
    assert (a != b) == (not a == b)
    assert (a != a) is False
    assert (a + b) + c == a + (b + c)
    if ring.is_exact:
        assert hash((a + b) + c) == hash(a + (b + c))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == a.ring.one()


def test_cyclotomic_reduction_idempotent():
    r = cyclotomic(12)
    z = r.root_of_unity(12)
    e = z ** 7 + z ** 3 - 2
    coeffs, den = e.payload
    assert r._normalize(r._reduce(list(coeffs)), den) == e.payload


def test_equal_exact_elements_hash_alike():
    r = cyclotomic(12)
    z = r.root_of_unity(12)
    assert z**12 == r.one() and hash(z**12) == hash(r.one())
    q = rationals()
    assert hash(q.element(Fraction(2, 4))) == hash(q.element(Fraction(1, 2)))
    assert hash(q.from_int(2) * q.int_inverse(4)) == hash(q.element(Fraction(1, 2)))
    assert len({z**12, r.one(), z**24}) == 1


def test_complex_elements_are_unhashable():
    # equality within a tolerance is not transitive, so no hash agrees with it
    with pytest.raises(TypeError):
        hash(complex_ring().one())


def test_dot_of_no_pairs_is_zero():
    for ring in (rationals(), cyclotomic(4), prime_field(7), quadratic_field(5), complex_ring()):
        assert ring.dot([]) == ring.zero()


def test_complex_tolerance_eq():
    c = complex_ring(1e-9)
    assert c.element(1 + 1e-12j) == c.one()
    assert c.element(1 + 1e-3j) != c.one()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, "1e-9"])
def test_complex_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(RingError):
        complex_ring(tol)
    with pytest.raises(RingError):
        make_ring(RingSpec(kind="complex-float", tol=tol))
    assert complex_ring(0).spec.tol == 0


@pytest.mark.parametrize(
    "ring",
    [rationals(), cyclotomic(6), cyclotomic(12), prime_field(7), quadratic_field(5)],
)
def test_encode_decode_roundtrip(ring):
    z = ring.root_of_unity(2)
    elems = [ring.one(), z, ring.from_int(5), ring.int_inverse(3) if ring.characteristic() != 3 else ring.one()]
    for e in elems:
        assert ring.decode(ring.encode(e)) == e


def test_complex_encode_decode():
    c = complex_ring()
    e = c.root_of_unity(8)
    assert c.decode(c.encode(e)) == e


def test_rational_lane_planes_match_the_property_writer():
    # the writer reads as_integer_ratio() once per entry and skips the
    # rescale over the denominator 1; the reference reads numerator and
    # denominator and always rescales
    q = rationals()

    def reference(units):
        fracs = [u.payload for u in units]
        den = math.lcm(*(f.denominator for f in fracs))
        return [[f.numerator * (den // f.denominator) for f in fracs]], den

    big = 2**63
    cases = [
        [Fraction(1, 2), Fraction(-3, 4), Fraction(5), Fraction(-7, 6), Fraction(2, 9)],
        [Fraction(n) for n in (-5, 0, 3, -(2**40), 7)],
        [Fraction(big), Fraction(-big), Fraction(big + 1, 3), Fraction(-(2**64), 5), Fraction(-1)],
        [Fraction(big), Fraction(2**64 + 3), Fraction(-big - 1)],
        [Fraction(-1, 2**70), Fraction(-3, 2**70 + 1)],
        [],
    ]
    for fracs in cases:
        units = [q.element(f) for f in fracs]
        assert q._lane_planes(units) == reference(units)
