"""Coefficient-ring backends.

Every matrix and signal in this package carries its arithmetic with it: an
exact cyclotomic field Q(zeta_w), the plain rationals, a prime field GF(p), a
quadratic extension GF(p^2), or floating complex numbers used as a numerical
cross-check. All exact backends are fields, so an entry is a unit exactly when
it is nonzero. A backend defines only the payload rules in which it differs
from Python's operators (see RingContext), how its values are written as
integer coefficient planes for the numeric lane of ght.matrix, and with two
or more planes the reduced powers of x that fold a product (_lane_fold).
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


class RingError(ValueError):
    """Invalid ring specification or illegal ring operation."""


@dataclass(frozen=True)
class RingSpec:
    """Declarative description of a coefficient ring.

    kind: one of the backend kinds that make_ring builds.
    w: root-of-unity order for the cyclotomic backend.
    p: characteristic for the field backends.
    ext_poly: (c0, c1, c2) of a monic quadratic c2*y^2 + c1*y + c0, c2 == 1.
    tol: absolute comparison tolerance, complex-float backend only.
    """

    kind: str
    w: int | None = None
    p: int | None = None
    ext_poly: tuple[int, int, int] | None = None
    tol: float | None = None


class RingElement:
    """A single value of some ring context; immutable.

    Supports +, -, *, unary -, ** with integer exponents, and == (exact on
    exact backends, tolerance-based on complex-float). Integers mix in freely
    and are embedded through the ring. Exact elements hash by their canonical
    payload; complex-float ones are unhashable, as no hash can agree with an
    equality within a tolerance, which is not transitive.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def __reduce__(self):
        """copy, deepcopy and pickle rebuild it over the live context of its
        ring's spec (RingContext.__reduce__)."""
        return RingElement, (self.ring, self.payload)

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise RingError("ring mismatch")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(
            self.ring, self.ring._add(self.payload, self.ring._neg(o.payload))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.payload))

    def inverse(self):
        return RingElement(self.ring, self.ring._inv(self.payload))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        return RingElement(self.ring, self.ring._pow(base.payload, abs(n)))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.ring._eq(self.payload, o.payload)

    def is_zero(self):
        return self == self.ring.zero()

    def __hash__(self):
        if not self.ring.is_exact:
            raise TypeError(f"elements of {self.ring!r} are unhashable")
        return hash(self.payload)

    def __repr__(self):
        return self.ring._repr(self.payload)


# --- polynomial helpers: ascending coefficient lists over Z or Q ---


def _poly_trim(c):
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_divmod(num, den):
    """Division with remainder by a trimmed divisor. A monic divisor keeps
    integer coefficients integers; any other makes the quotient Fractions."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(rem) - 1 < dd:
        return [0], _poly_trim(rem)
    q = [0] * (len(rem) - dd)
    for shift in range(len(rem) - 1 - dd, -1, -1):
        c = rem[shift + dd]
        if c:
            if lead != 1:
                c = Fraction(c) / lead
            q[shift] = c
            for i, d in enumerate(den):
                rem[shift + i] -= c * d
    return _poly_trim(q), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(w):
    """Integer coefficients of Phi_w, ascending: the Moebius product of the
    x^(w/s) - 1 over the squarefree s | w, to the power mu(s), as power series
    in Python integers cut past degree phi(w), the products before the quotients."""
    if w < 1:
        raise RingError("w must be >= 1")
    primes = _prime_factors(w)
    n = w // math.prod(primes) * math.prod(p - 1 for p in primes) + 1
    c = np.array([1] + [0] * (n - 1), dtype=object)
    subsets = (s for k in range(len(primes) + 1) for s in itertools.combinations(primes, k))
    for odd, d in sorted((len(s) % 2, w // math.prod(s)) for s in subsets):
        c = -c
        if odd:  # c / (x^d - 1) = -c (1 + x^d + x^2d + ...)
            for j in range(d, n, d):
                c[j : j + d] += c[j - d : j][: n - j]
        else:  # c (x^d - 1)
            c[d:] -= c[:-d].copy()
    return tuple(int(a) for a in c)


# Miller-Rabin with the first 13 primes as bases decides every n below
# _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin; RingError for n >= _PRIME_LIMIT."""
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _PRIME_LIMIT:
        raise RingError(f"primality is not decided for p >= {_PRIME_LIMIT}")
    if any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    # n is a strong probable prime to base a when a^d = 1 or a^(d 2^r) = -1
    # for some 0 <= r < s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
        for a in _PRIME_BASES
    )


_TRIAL_LIMIT = 2**10


def _rho_factor(n):
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    cycle detection, gcds batched 128 steps at a time, retried with the next
    constant c when a batch jumps past the factor to n itself."""
    for c in itertools.count(1):
        f = lambda x: (x * x + c) % n
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = f(y)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = f(y)
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # step the last batch again one gcd at a time
            g = 1
            while g == 1:
                ys = f(ys)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=256)
def _prime_factors(*parts):
    """The distinct primes of the product of parts, ascending: trial division
    below _TRIAL_LIMIT, then Pollard-Brent rho on each cofactor until
    is_prime decides every piece. Each part must lie below _PRIME_LIMIT."""
    primes, pieces = set(), []
    for n in parts:
        for f in range(2, _TRIAL_LIMIT):
            if f * f > n:
                break
            if n % f == 0:
                primes.add(f)
                while n % f == 0:
                    n //= f
        if n > 1:
            pieces.append(n)
    while pieces:
        n = pieces.pop()
        if is_prime(n):
            primes.add(n)
        else:
            d = _rho_factor(n)
            pieces += [d, n // d]
    return tuple(sorted(primes))


class RingContext:
    """Arithmetic backend behind RingElement, one live context per spec
    (make_ring), so contexts compare, hash and copy by identity. The payload
    hooks _add, _mul, _neg and _eq default to Python's operators: the
    arithmetic of the Fraction and complex payloads of Q and C, and the
    equality of every exact payload. Q(zeta_w) reduces modulo Phi_w, GF(p)
    and GF(p^2) modulo p, and C compares within its tolerance."""

    spec: RingSpec
    is_exact = True

    def element(self, payload):
        return RingElement(self, payload)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n) -> RingElement:
        return RingElement(self, self._from_int(n))

    def int_inverse(self, n) -> RingElement:
        """Inverse of the integer n embedded in the ring; fails when the
        characteristic divides n (or n == 0)."""
        ch = self.characteristic()
        if n == 0 or (ch and n % ch == 0):
            raise RingError(f"{n} is not invertible in {self!r}")
        return self.from_int(n).inverse()

    def characteristic(self) -> int:
        return self.spec.p or 0

    def root_of_unity(self, w) -> RingElement:
        """Deterministic element of multiplicative order exactly w."""
        raise NotImplementedError

    def root_powers(self, v) -> list[RingElement]:
        """[omega^0, ..., omega^(v-1)] for omega = root_of_unity(v), by
        sequential products; Q(zeta_w) slices its table of roots and C takes
        each power as exp(-2 pi i k / v)."""
        omega = self.root_of_unity(v)
        powers = [self.one()]
        for _ in range(v - 1):
            powers.append(powers[-1] * omega)
        return powers

    def unit_order_hint(self) -> int:
        """Order h of the cyclic group of roots of unity of an exact backend:
        2 for Q, lcm(2, w) for Q(zeta_w), p - 1 for GF(p), p^2 - 1 for
        GF(p^2). By Lagrange an exact unit of finite order has an order
        dividing h, which _order and root_of_unity descend from. On the
        complex backend, 2 is only a scale for bounding order searches."""
        return 2

    def _hint_primes(self):
        """The distinct primes of unit_order_hint()."""
        return _prime_factors(self.unit_order_hint())

    def _order(self, a):
        """Multiplicative order of the unit payload a on an exact backend, or
        None when a is no root of unity: a^h = 1 for h = unit_order_hint()
        exactly when a has finite order, and then h is divided by each prime
        q of h for as long as a^(h/q) is still 1."""
        one = self._from_int(1)
        h = self.unit_order_hint()
        if not self._eq(self._pow(a, h), one):
            return None
        for q in self._hint_primes():
            while h % q == 0 and self._eq(self._pow(a, h // q), one):
                h //= q
        return h

    def dot(self, pairs):
        """Sum of a*b over (a, b) pairs, one ring operation at a time: the
        reference that tests hold the numeric lane of ght.matrix to."""
        acc = None
        for a, b in pairs:
            acc = a * b if acc is None else acc + a * b
        return self.zero() if acc is None else acc

    # numeric lane hooks (see ght.matrix._lane_apply)
    _lane_dim = 1  # d, the number of coefficient planes

    def _lane_planes(self, units):
        """(planes, den): d lists of numbers, where planes[m][k] * x_m / den
        summed over m is units[k] for the backend's basis x_0..x_{d-1}.
        Exact backends write integers over one common denominator den; by
        default the payloads are the one plane."""
        return [[u.payload for u in units]], 1

    def _lane_fold(self):
        """For d > 1: the (2d - 1, d) integers, int64 or Python integers in an
        object array, of x^0..x^(2d - 2) reduced, which fold a product's
        planes; the kernel reduces modulo characteristic() before and after."""
        raise NotImplementedError

    def _lane_payload(self, coeffs, den):
        """The payload of the value with reduced coefficients coeffs over den."""
        raise NotImplementedError

    # payload hooks
    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        raise NotImplementedError

    def _pow(self, a, n):
        """a^n for n >= 0, by squaring and multiplying payloads."""
        acc = self._from_int(1)
        while n:
            if n & 1:
                acc = self._mul(acc, a)
            a = self._mul(a, a)
            n >>= 1
        return acc

    def _eq(self, a, b):
        return a == b

    def _from_int(self, n):
        raise NotImplementedError

    def _repr(self, a):
        return repr(a)

    # element text encoding (file formats)
    def encode(self, el: RingElement):
        raise NotImplementedError

    def decode(self, data) -> RingElement:
        raise NotImplementedError

    def __reduce__(self):
        return make_ring, (self.spec,)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(s):
    """(numerator, denominator > 0) of the rational that an int or a "p/q"
    or "n" string names, not reduced. Fraction reads more, such as
    exponents, with which a short string builds a huge integer."""
    if type(s) is int:
        return s, 1
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match:
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # past the interpreter's limit on digits
            den = 0
        if den:
            return num, den
    raise RingError(f"{s!r} is not a rational")


def _decoded_list(ring, data, n, kinds):
    """data, when it is a list of n values of the given kinds (not bools)."""
    if isinstance(data, list) and len(data) == n:
        for x in data:
            if isinstance(x, bool) or not isinstance(x, kinds):
                break
        else:
            return data
    raise RingError(f"{data!r} does not encode an element of {ring!r}")


class RationalsContext(RingContext):
    """Q with Fraction payloads, lowest terms, positive denominator."""

    def __init__(self):
        self.spec = RingSpec(kind="rationals")

    def _inv(self, a):
        if a == 0:
            raise RingError("inverse of zero")
        return 1 / a

    def _from_int(self, n):
        return Fraction(n)

    def root_of_unity(self, w):
        return _root_by_descent(self, w, (Fraction(1), Fraction(-1)))

    def _order(self, a):
        # 1 and -1 are Q's only roots of unity: no powers of Fractions
        return 1 if a == 1 else 2 if a == -1 else None

    def _lane_planes(self, units):
        # one as_integer_ratio() per Fraction costs half of its numerator and
        # denominator properties; each pair is unpacked at once, as a list of
        # k live pairs would set off the cyclic collector on a long signal.
        # The lcm needs each denominator once, and an integer table needs no
        # rescale.
        nums, dens = [], []
        for u in units:
            n, d = u.payload.as_integer_ratio()
            nums.append(n)
            dens.append(d)
        den = math.lcm(*set(dens))
        if den == 1:
            return [nums], 1
        return [[n * (den // d) for n, d in zip(nums, dens)]], den

    def _lane_payload(self, coeffs, den):
        return Fraction(coeffs[0], den)

    def encode(self, el):
        return _fraction_str(el.payload)

    def decode(self, data):
        return self.element(Fraction(*_parse_ratio(data)))

    def __repr__(self):
        return "Q"


class CyclotomicContext(RingContext):
    """Q(zeta_w): residues modulo Phi_w with rational coefficients.

    Payload is (coeffs, den): integer coefficients of degree < deg Phi_w over
    a common positive denominator, gcd-reduced. Phi_w is irreducible over Q,
    so every nonzero element is a unit. Its roots of unity and the fold of its
    lane are rows of x^j mod Phi_w, from one recurrence (_x_powers).
    """

    def __init__(self, w):
        if type(w) is not int or w < 1:
            raise RingError("w must be an integer >= 1")
        self.w = w
        self.phi = cyclotomic_polynomial(w)
        self.deg = len(self.phi) - 1
        self._lane_dim = self.deg
        self.spec = RingSpec(kind="cyclotomic-rationals", w=w)

    def _normalize(self, coeffs, den):
        if den < 0:
            coeffs = [-c for c in coeffs]
            den = -den
        g = den
        for c in coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g > 1:
            coeffs = [c // g for c in coeffs]
            den //= g
        if not any(coeffs):
            return ((0,) * self.deg, 1)
        return (tuple(coeffs), den)

    def _reduce(self, coeffs):
        """Reduce an integer coefficient list modulo Phi_w (monic)."""
        coeffs = list(coeffs)
        d = self.deg
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = 0
                for j in range(d):
                    coeffs[i - d + j] -= c * self.phi[j]
        coeffs = coeffs[:d]
        coeffs += [0] * (d - len(coeffs))
        return coeffs

    def _add(self, a, b):
        (ca, da), (cb, db) = a, b
        if da == db:
            return self._normalize([x + y for x, y in zip(ca, cb)], da)
        return self._normalize(
            [x * db + y * da for x, y in zip(ca, cb)], da * db
        )

    def _mul(self, a, b):
        (ca, da), (cb, db) = a, b
        return self._normalize(self._reduce(_poly_mul(ca, cb)), da * db)

    def _neg(self, a):
        (ca, da) = a
        return (tuple(-c for c in ca), da)

    def _order(self, a):
        """A rational unit's order is 1 for 1, 2 for -1, else None; a root's
        order comes from its index k in _root_table; None otherwise. A
        rational unit builds no table, which for w = 4093 is 8186 payloads."""
        (ca, da) = a
        if not any(ca[1:]):
            return {(1, 1): 1, (-1, 1): 2}.get((ca[0], da))
        k = _root_table(self.w)[1].get(a)
        h = self.unit_order_hint()
        return None if k is None else h // math.gcd(h, k)

    def _inv(self, a):
        """A rational unit inverts its constant; a root's inverse is entry -k
        of _root_table; others take Euclid."""
        (ca, da) = a
        if ca[0] and not any(ca[1:]):
            return self._normalize([da] + [0] * (self.deg - 1), ca[0])
        roots, index = _root_table(self.w)
        k = index.get(a)
        return self._euclid_inverse(a) if k is None else roots[-k]

    def _euclid_inverse(self, a):
        (ca, da) = a
        if not any(ca):
            raise RingError("inverse of zero")
        # extended Euclid in Q[x]: s*ca + t*Phi_w = gcd = const
        r0, r1 = list(ca), list(self.phi)
        s0, s1 = [1], [0]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1 or r0[0] == 0:
            raise RingError("element is not invertible")
        inv_fracs = [Fraction(s) / r0[0] * da for s in s0]
        return self._from_fractions(inv_fracs)

    def _from_fractions(self, fracs):
        fracs = list(fracs)[: self.deg]
        fracs += [Fraction(0)] * (self.deg - len(fracs))
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        coeffs = [int(f * den) for f in fracs]
        return self._normalize(coeffs, den)

    def _from_int(self, n):
        coeffs = [0] * self.deg
        coeffs[0] = n
        return self._normalize(coeffs, 1)

    def _root_slice(self, v):
        """Every (h/v)-th payload of _root_table, h = unit_order_hint()."""
        h = self.unit_order_hint()
        if v < 1 or h % v != 0:
            raise RingError(f"Q(zeta_{self.w}) has no element of order {v}")
        return _root_table(self.w)[0][:: h // v]

    def root_of_unity(self, w):
        # index h/w of _root_table: the element that the evaluation embedding
        # x -> exp(-2*pi*i/self.w) sends to exp(-2*pi*i/w), so the exact and
        # floating backends agree entrywise
        return self.element(self._root_slice(w)[1 % w])

    def root_powers(self, v):
        return [self.element(u) for u in self._root_slice(v)]

    def unit_order_hint(self):
        return self.w if self.w % 2 == 0 else 2 * self.w

    def _lane_planes(self, units):
        payloads = [u.payload for u in units]
        den = math.lcm(*(d for _, d in payloads))
        cols = [[c * (den // d) for c in coeffs] for coeffs, d in payloads]
        return [list(plane) for plane in zip(*cols)], den

    def _lane_fold(self):
        return _fold_table(self.w)

    def _lane_payload(self, coeffs, den):
        return self._normalize(list(coeffs), den)

    def evaluate_complex(self, el: RingElement) -> complex:
        """Evaluate at the canonical embedding zeta_w -> exp(-2*pi*i/w)."""
        z = cmath.exp(-2j * cmath.pi / self.w)
        (coeffs, den) = el.payload
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc / den

    def encode(self, el):
        (coeffs, den) = el.payload
        return [_fraction_str(Fraction(c, den)) for c in coeffs]

    def decode(self, data):
        ratios = [_parse_ratio(s) for s in _decoded_list(self, data, self.deg, (int, str))]
        den = math.lcm(*(d for _, d in ratios))
        return self.element(self._normalize([n * (den // d) for n, d in ratios], den))

    def _repr(self, a):
        (coeffs, den) = a
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if abs(c) != 1 else ("z" if c > 0 else "-z"))
            else:
                terms.append(
                    f"{c}*z^{i}" if abs(c) != 1 else (f"z^{i}" if c > 0 else f"-z^{i}")
                )
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return body if den == 1 else f"({body})/{den}"

    def __repr__(self):
        return f"Q(zeta_{self.w})"


def _x_powers(w):
    """The coefficients of x^0, ..., x^(w-1) mod Phi_w, one int64 row at a
    time: row j + 1 is x times row j, its top coefficient folded back by the
    monic Phi_w, each value checked to stay below 2^53, where a float64 copy
    is exact. As x^w = 1, these are all the powers of x."""
    phi = np.array(cyclotomic_polynomial(w)[:-1], dtype=np.int64)
    big_phi = int(np.abs(phi).max())
    row = np.zeros(len(phi), dtype=np.int64)
    row[0] = 1
    yield row
    for j in range(1, w):
        top = int(row[-1])
        if int(np.abs(row).max()) + abs(top) * big_phi >= 2**53:
            raise RingError(f"x^{j} mod Phi_{w} has a coefficient past 2^53")
        row = np.concatenate(([0], row[:-1])) - top * phi
        yield row


# Q(zeta_w) tables are keyed by w, not by ring object, so that a ring freed
# and built again finds them; a few tables of large w are already megabytes
@lru_cache(maxsize=32)
def _fold_table(w):
    """Row m holds the int64 coefficients of x^m mod Phi_w, for m < 2 deg - 1,
    written one row at a time. A lane fold sums at most deg rows of it per
    column (ght.matrix._fold), so deg times its column sums in size is
    checked to stay below 2^53, where a float64 copy of the fold is exact."""
    deg = len(cyclotomic_polynomial(w)) - 1
    fold = np.empty((2 * deg - 1, deg), dtype=np.int64)
    # x^w = 1, so from row w on the rows repeat those from row 0
    for m, row in zip(range(len(fold)), itertools.chain(_x_powers(w), fold)):
        fold[m] = row
    if deg * int(np.abs(fold).sum(axis=0).max()) >= 2**53:
        raise RingError(f"the fold table of Phi_{w} has column sums past 2^53 / {deg}")
    fold.flags.writeable = False
    return fold


@lru_cache(maxsize=32)
def _root_table(w):
    """(roots, index): roots[k] is the payload of the root of unity of
    Q(zeta_w) that x -> exp(-2 pi i / w) sends to exp(-2 pi i k / h), for
    h = unit_order_hint(), and index maps each of the h payloads to its k.
    For even w, roots[k] is x^k; for odd w, roots[2j] is x^j and
    roots[2j + w mod h] is -x^j. So roots[k] has order h / gcd(h, k) and
    inverse roots[-k]."""
    h = w if w % 2 == 0 else 2 * w
    roots = [None] * h
    for j, row in enumerate(_x_powers(w)):
        roots[j * h // w] = (tuple(row.tolist()), 1)
        if w % 2:
            roots[(2 * j + w) % h] = (tuple((-row).tolist()), 1)
    return roots, {u: k for k, u in enumerate(roots)}


def _order_exact(el: RingElement, w, one) -> bool:
    """el has multiplicative order exactly w: el^w = 1, and el^(w/q) != 1
    for each prime q of w."""
    if el ** w != one:
        return False
    return all(el ** (w // q) != one for q in _prime_factors(w))


def _root_by_descent(ring, w, payloads):
    """The first c = a^(h/w) over the candidate payloads a with order exactly
    w, in a ring whose roots of unity form a cyclic group of order
    h = unit_order_hint() (the units of a finite field, or +-1 in Q). A
    generator a gives one, so candidates that run through the group end the
    search; a fraction phi(w)/w of them succeeds."""
    h = ring.unit_order_hint()
    if w >= 1 and h % w == 0:
        for a in payloads:
            c = ring._pow(a, h // w)
            if ring._order(c) == w:
                return ring.element(c)
    raise RingError(f"{ring!r} has no element of order {w}")


class PrimeFieldContext(RingContext):
    """GF(p) with integer payloads in 0..p-1."""

    def __init__(self, p):
        if not is_prime(p):
            raise RingError(f"{p!r} is not prime")
        self.p = p
        self.spec = RingSpec(kind="prime-field", p=p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise RingError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def _from_int(self, n):
        return n % self.p

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def root_of_unity(self, w):
        return _root_by_descent(self, w, range(1, self.p))

    def unit_order_hint(self):
        return self.p - 1

    def _lane_payload(self, coeffs, den):
        return coeffs[0] % self.p

    def encode(self, el):
        return [el.payload]

    def decode(self, data):
        (a,) = _decoded_list(self, data, 1, int)
        return self.element(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


class QuadraticFieldContext(RingContext):
    """GF(p^2) = GF(p)[y] / (y^2 + c1*y + c0); payload (a, b) means a + b*y."""

    def __init__(self, p, ext_poly):
        if not is_prime(p):
            raise RingError(f"{p!r} is not prime")
        c0, c1, c2 = ext_poly
        if not all(type(c) is int for c in ext_poly):
            raise RingError("extension polynomial coefficients must be integers")
        if c2 != 1:
            raise RingError("extension polynomial must be monic")
        c0 %= p
        c1 %= p
        # Euler's criterion: irreducible iff the discriminant is a non-residue
        if p == 2:
            irreducible = (c0, c1) == (1, 1)
        else:
            irreducible = pow(c1 * c1 - 4 * c0, (p - 1) // 2, p) == p - 1
        if not irreducible:
            raise RingError(f"y^2 + {c1}y + {c0} is reducible over GF({p})")
        self.p = p
        self.c0 = c0
        self.c1 = c1
        self.spec = RingSpec(
            kind="quadratic-extension-field", p=p, ext_poly=(c0, c1, 1)
        )

    def _add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def _mul(self, a, b):
        p, c0, c1 = self.p, self.c0, self.c1
        # (a0 + a1 y)(b0 + b1 y), with y^2 = -c1 y - c0
        hi = a[1] * b[1]
        return (
            (a[0] * b[0] - hi * c0) % p,
            (a[0] * b[1] + a[1] * b[0] - hi * c1) % p,
        )

    def _neg(self, a):
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def _inv(self, a):
        """The conjugate (a0 - c1*a1) - a1*y over the norm
        a0^2 - c1*a0*a1 + c0*a1^2, an element of GF(p)."""
        if a == (0, 0):
            raise RingError("inverse of zero")
        p, c0, c1 = self.p, self.c0, self.c1
        a0, a1 = a
        n = pow((a0 * a0 - c1 * a0 * a1 + c0 * a1 * a1) % p, -1, p)
        return ((a0 - c1 * a1) * n % p, -a1 * n % p)

    def _from_int(self, n):
        return (n % self.p, 0)

    def root_of_unity(self, w):
        # candidates a + b*y for b = 1, 2, ..., and a = 0..p-1, then GF(p):
        # every element of GF(p) has an order dividing p - 1, so starting
        # there would cost p - 1 failed candidates when w does not divide it
        p = self.p
        indices = itertools.chain(range(p, p * p), range(1, p))
        return _root_by_descent(self, w, ((i % p, i // p) for i in indices))

    def unit_order_hint(self):
        return self.p * self.p - 1

    def _hint_primes(self):
        # p^2 - 1 may pass _PRIME_LIMIT; its factors p - 1 and p + 1 do not
        return _prime_factors(self.p - 1, self.p + 1)

    _lane_dim = 2

    def _lane_planes(self, units):
        return [list(plane) for plane in zip(*(u.payload for u in units))], 1

    def _lane_fold(self):
        # y^2 = -c1*y - c0; Python integers, as c0 and c1 may pass 2^53
        return np.array([[1, 0], [0, 1], [-self.c0, -self.c1]], dtype=object)

    def _lane_payload(self, coeffs, den):
        return (coeffs[0] % self.p, coeffs[1] % self.p)

    def encode(self, el):
        return [el.payload[0], el.payload[1]]

    def decode(self, data):
        a, b = _decoded_list(self, data, 2, int)
        return self.element((a % self.p, b % self.p))

    def _repr(self, a):
        return f"({a[0]} + {a[1]}y)"

    def __repr__(self):
        return f"GF({self.p}^2)"


class ComplexContext(RingContext):
    """Floating complex numbers; equality is |a - b| <= tol."""

    is_exact = False

    def __init__(self, tol=1e-9):
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
            raise RingError("tol must be a finite non-negative number")
        self.tol = float(tol)
        self.spec = RingSpec(kind="complex-float", tol=self.tol)

    def _inv(self, a):
        if abs(a) <= self.tol:
            raise RingError("inverse of (numerical) zero")
        return 1 / a

    def _eq(self, a, b):
        return abs(a - b) <= self.tol

    def _from_int(self, n):
        return complex(n)

    def _lane_payload(self, coeffs, den):
        return complex(coeffs[0])

    def root_of_unity(self, w):
        if w < 1:
            raise RingError("w must be >= 1")
        return self.element(cmath.exp(-2j * cmath.pi / w))

    def root_powers(self, v):
        # the k-th power of a rounded omega carries k times its angle error:
        # 1.1e-9 from np.fft.fft over dft(4095), past the default tol
        if v < 1:
            raise RingError("w must be >= 1")
        return [self.element(cmath.exp(-2j * cmath.pi * k / v)) for k in range(v)]

    def encode(self, el):
        return [el.payload.real, el.payload.imag]

    def decode(self, data):
        parts = _decoded_list(self, data, 2, (int, float))
        if not all(abs(x) <= sys.float_info.max for x in parts):
            raise RingError(f"{data!r} has a part that is not a finite float")
        return self.element(complex(*parts))

    def __repr__(self):
        return "C(float)"


# the live context of each canonical spec, the one its context holds: a
# factory builds and validates a context, then returns the live one
_RINGS = weakref.WeakValueDictionary()


def _live(ring):
    return _RINGS.setdefault(ring.spec, ring)


def make_ring(spec: RingSpec) -> RingContext:
    """The live context of the ring that a RingSpec describes."""
    if spec.kind == "rationals":
        return rationals()
    if spec.kind == "cyclotomic-rationals":
        return cyclotomic(spec.w)
    if spec.kind == "prime-field":
        return prime_field(spec.p)
    if spec.kind == "quadratic-extension-field":
        if spec.ext_poly is None:
            raise RingError("quadratic extension needs ext_poly")
        return quadratic_field(spec.p, spec.ext_poly)
    if spec.kind == "complex-float":
        return complex_ring(spec.tol if spec.tol is not None else 1e-9)
    raise RingError(f"unknown backend kind {spec.kind!r}")


def rationals() -> RationalsContext:
    return _live(RationalsContext())


def cyclotomic(w) -> CyclotomicContext:
    return _live(CyclotomicContext(w))


def prime_field(p) -> PrimeFieldContext:
    return _live(PrimeFieldContext(p))


def quadratic_field(p, ext_poly=(1, 1, 1)) -> QuadraticFieldContext:
    """GF(p^2); the default modulus y^2 + y + 1 is irreducible mod 5."""
    return _live(QuadraticFieldContext(p, ext_poly))


def complex_ring(tol=1e-9) -> ComplexContext:
    return _live(ComplexContext(tol))
