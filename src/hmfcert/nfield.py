"""Exact arithmetic in totally real number fields with certified embeddings.

A Field is a monic irreducible integer polynomial together with isolating
intervals for its real roots (ascending) and optional Galois permutation
data on the embedding indices.  Elements are rational coordinate vectors
in the power basis; all arithmetic is exact.  Real embeddings are produced
as dyadic intervals that provably contain the exact value, refined by
bisection on the isolating interval of the corresponding root.

The certified kernel is symmetrized_norm: the integer
prod_{sigma in G} ( prod_tau emb_{sigma(tau)}(eps)^{e_tau} - 1 )
obtained by adaptive precision escalation, with exact shortcuts where the
value is rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .lattice import bareiss_det


class NotIrreducible(Exception):
    pass


class NotTotallyReal(Exception):
    pass


class NotSquarefree(Exception):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class NotTotallyPositive(Exception):
    pass


class UnsupportedDegree(Exception):
    pass


class Indeterminate(Exception):
    """Interval certification hit the escalation cap while straddling 0."""

    def __init__(self, max_bits: int):
        super().__init__(f"indeterminate after escalating to {max_bits} bits")
        self.max_bits = max_bits


DEFAULT_PRECISION_CAP = 2**16


# ---------------------------------------------------------------------------
# dyadic intervals


def _round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(x * scale), scale)


def _round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(x * scale), scale)


@dataclass(frozen=True)
class DyadicInterval:
    """Closed interval [lo, hi] with dyadic rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int | None = None) -> "DyadicInterval":
        q = Fraction(q)
        if (q.denominator & (q.denominator - 1)) == 0:
            return cls(q, q)
        assert bits is not None
        return cls(_round_down(q, bits), _round_up(q, bits))

    @property
    def center(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int | None:
        """+1, -1, or None if the interval contains 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    def __add__(self, other):
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return DyadicInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return DyadicInterval(min(prods), max(prods))

    def round(self, bits: int) -> "DyadicInterval":
        """Outward rounding to the 2^-bits grid."""
        return DyadicInterval(_round_down(self.lo, bits), _round_up(self.hi, bits))

    def inverse(self, bits: int) -> "DyadicInterval":
        if self.straddles_zero():
            raise ZeroDivisionError("interval contains zero")
        return DyadicInterval(_round_down(1 / self.hi, bits),
                              _round_up(1 / self.lo, bits))

    def power(self, e: int, bits: int) -> "DyadicInterval":
        if e == 0:
            one = Fraction(1)
            return DyadicInterval(one, one)
        base = self if e > 0 else self.inverse(bits)
        out = base
        for _ in range(abs(e) - 1):
            out = (out * base).round(bits)
        return out

    def sqrt(self, bits: int) -> "DyadicInterval":
        if self.lo < 0:
            raise ValueError("interval extends below zero")
        scale = 1 << (2 * bits)
        lo_n = math.isqrt(math.floor(self.lo * scale))
        hi_f = math.floor(self.hi * scale)
        hi_n = math.isqrt(hi_f)
        if hi_n * hi_n < hi_f:
            hi_n += 1
        return DyadicInterval(Fraction(lo_n, 1 << bits), Fraction(hi_n, 1 << bits))


@dataclass(frozen=True)
class CertifiedInteger:
    """Integer pinned by an interval of width < 1/2 around it."""

    value: int
    final_width: Fraction

    def __post_init__(self):
        if not self.final_width < Fraction(1, 2):
            raise ValueError("certifying interval is too wide")


class Zero:
    """Sentinel for an exactly-proven zero of symmetrized_norm."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"


ZERO = Zero()


# ---------------------------------------------------------------------------
# polynomial helpers over Q (dense lists, low degree first)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim([ (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                        for i in range(n) ])


def _poly_scale(a, c):
    return _poly_trim([x * c for x in a])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_eval(p, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _sturm_chain(p):
    chain = [list(p), _poly_deriv(p)]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi]."""
    chain = _sturm_chain([Fraction(c) for c in p])
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _isolate_real_roots(p) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi] for the real roots, ascending."""
    p = [Fraction(c) for c in p]
    chain = _sturm_chain(p)
    bound = Fraction(1) + max(abs(c) for c in p[:-1]) / abs(p[-1]) if len(p) > 1 else Fraction(1)
    bound = _round_up(bound, 0)

    out = []

    def recurse(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = _sign_variations(chain, lo) - _sign_variations(chain, mid)
        recurse(lo, mid, left)
        recurse(mid, hi, count - left)

    total = _sign_variations(chain, -bound) - _sign_variations(chain, bound)
    recurse(-bound, bound, total)
    return out


# ---------------------------------------------------------------------------
# Field and FieldElem


def _default_galois(d: int, min_poly) -> tuple[tuple[int, ...], ...] | None:
    if d == 1:
        return ((0,),)
    if d == 2:
        return ((0, 1), (1, 0))
    if d == 3 and _cubic_is_cyclic(min_poly):
        return ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return None


def _cubic_is_cyclic(min_poly) -> bool:
    """An irreducible cubic is cyclic precisely when its discriminant is a square."""
    disc = _cubic_discriminant(min_poly)
    return disc > 0 and math.isqrt(disc) ** 2 == disc


def _cubic_discriminant(p) -> int:
    # monic x^3 + bx^2 + cx + d
    d0, c, b, _ = [int(x) for x in p]
    return (18 * b * c * d0 - 4 * b**3 * d0 + b * b * c * c
            - 4 * c**3 - 27 * d0 * d0)


@dataclass(frozen=True)
class Field:
    """Totally real number field Q[x]/(min_poly) with ordered real embeddings."""

    min_poly: tuple[int, ...]  # low degree first, monic
    embeddings: tuple[tuple[Fraction, Fraction], ...]
    galois: tuple[tuple[int, ...], ...] | None
    degree: int
    _root_cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def element(self, coeffs) -> "FieldElem":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError("too many coordinates")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    @property
    def zero(self) -> "FieldElem":
        return self.element([])

    @property
    def one(self) -> "FieldElem":
        return self.element([1])

    @property
    def gen(self) -> "FieldElem":
        if self.degree == 1:
            return self.element([-self.min_poly[0]])
        return self.element([0, 1])

    def __repr__(self):
        return f"Field({list(self.min_poly)})"

    # --- root refinement -------------------------------------------------

    def _refined_root(self, idx: int, width: Fraction) -> tuple[Fraction, Fraction]:
        """Interval around root idx of width <= width, nested under refinement."""
        lo, hi = self._root_cache.get(idx, self.embeddings[idx])
        p = [Fraction(c) for c in self.min_poly]
        s_lo = _poly_eval(p, lo)
        if s_lo == 0:
            # endpoint is the root itself (rational root, degree 1 only)
            self._root_cache[idx] = (lo, lo)
            return lo, lo
        sign_lo = 1 if s_lo > 0 else -1
        while hi - lo > width:
            mid = (lo + hi) / 2
            v = _poly_eval(p, mid)
            if v == 0:
                lo = hi = mid
                break
            if (1 if v > 0 else -1) == sign_lo:
                lo = mid
            else:
                hi = mid
        self._root_cache[idx] = (lo, hi)
        return lo, hi


@dataclass(frozen=True)
class FieldElem:
    field: Field
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def _check(self, other) -> "FieldElem":
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        if not isinstance(other, FieldElem) or other.field.min_poly != self.field.min_poly:
            raise TypeError("mixed-field arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElem(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElem(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        mp = [Fraction(c) for c in self.field.min_poly]
        _, rem = _poly_divmod(prod, mp)
        rem += [Fraction(0)] * (self.field.degree - len(rem))
        return FieldElem(self.field, tuple(rem[: self.field.degree]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # extended gcd of self and min_poly over Q
        a = _poly_trim([Fraction(c) for c in self.coeffs])
        b = [Fraction(c) for c in self.field.min_poly]
        r0, r1 = b, a
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1), Fraction(-1)))
        # r0 = gcd (a nonzero constant since min_poly is irreducible)
        assert len(r0) == 1
        inv = _poly_scale(s0, 1 / r0[0])
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return FieldElem(self.field, tuple(inv[: self.field.degree]))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.min_poly, self.coeffs))

    def __repr__(self):
        return f"FieldElem{self.coeffs}"


def make_field(coeffs, galois=None) -> Field:
    """Build a totally real field from the monic integer minimal polynomial.

    coeffs is low degree first.  Degree-2 fields default to the swap Galois
    group, cyclic cubics (square discriminant) to the 3-cycle group; other
    degrees carry no Galois data unless supplied.  Supplied data must be a
    transitive permutation group, and on a cubic a group of order 3 needs a
    square discriminant.
    """
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(coeffs) - 1
    if d > 1:
        import sympy

        x = sympy.symbols("x")
        poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)
        if not poly.is_irreducible:
            raise NotIrreducible(f"{coeffs} has a rational factor")
    count = sturm_root_count(coeffs, *_root_bounds(coeffs))
    if count < d:
        raise NotTotallyReal(f"only {count} real roots for degree {d}")
    intervals = _isolate_real_roots(coeffs)
    assert len(intervals) == d
    if galois is not None:
        galois = tuple(tuple(int(i) for i in perm) for perm in galois)
        _validate_galois(galois, d)
        if d == 3 and len(galois) == 3 and not _cubic_is_cyclic(coeffs):
            raise ValueError(
                "galois data of order 3 needs a cyclic cubic, but the discriminant "
                f"{_cubic_discriminant(coeffs)} is not a square")
    else:
        galois = _default_galois(d, coeffs)
    return Field(min_poly=tuple(coeffs), embeddings=tuple(intervals),
                 galois=galois, degree=d)


def _root_bounds(p):
    b = Fraction(1) + max(abs(Fraction(c)) for c in p[:-1]) / abs(Fraction(p[-1]))
    return -b, b


def _validate_galois(perms, d):
    idset = tuple(range(d))
    elems = set(perms)
    if tuple(idset) not in elems:
        raise ValueError("galois data lacks the identity permutation")
    for g in perms:
        if sorted(g) != list(idset):
            raise ValueError(f"not a permutation of 0..{d-1}: {g}")
        for h in perms:
            comp = tuple(g[h[i]] for i in range(d))
            if comp not in elems:
                raise ValueError("galois data is not closed under composition")
    orbit = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in perms:
            if g[i] not in orbit:
                orbit.add(g[i])
                frontier.append(g[i])
    if len(orbit) != d:
        raise ValueError("galois data is not transitive")
    if len(elems) < d:
        raise ValueError("galois group must have order >= degree")


# ---------------------------------------------------------------------------
# norms, traces, embeddings


def mult_matrix(a: FieldElem):
    """Matrix of multiplication by a in the power basis (rows = images)."""
    d = a.field.degree
    rows = []
    basis_elem = a.field.one
    gen = a.field.gen if d > 1 else None
    cur = a
    for i in range(d):
        rows.append(list(cur.coeffs))
        if i < d - 1:
            cur = cur * gen
    return rows


def norm(a: FieldElem) -> Fraction:
    """Absolute norm down to Q (determinant of the multiplication matrix)."""
    rows = mult_matrix(a)
    denom = 1
    for row in rows:
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    int_rows = [[int(x * denom) for x in row] for row in rows]
    return Fraction(bareiss_det(int_rows), denom ** a.field.degree)


def trace(a: FieldElem) -> Fraction:
    rows = mult_matrix(a)
    return sum(rows[i][i] for i in range(a.field.degree))


def embed(a: FieldElem, idx: int, precision_bits: int) -> DyadicInterval:
    """Dyadic interval of width <= 2^-precision_bits containing emb_idx(a)."""
    fld = a.field
    if not 0 <= idx < fld.degree:
        raise ValueError("embedding index out of range")
    if a.is_rational():
        return DyadicInterval.from_fraction(a.coeffs[0], precision_bits + 1)
    slack = 4
    target = Fraction(1, 1 << precision_bits)
    while True:
        lo, hi = fld._refined_root(idx, Fraction(1, 1 << (precision_bits + slack)))
        # exact interval Horner evaluation
        acc_lo = acc_hi = Fraction(0)
        for c in reversed(a.coeffs):
            cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo, acc_hi = min(cands) + c, max(cands) + c
        out = DyadicInterval(_round_down(acc_lo, precision_bits + slack),
                            _round_up(acc_hi, precision_bits + slack))
        if out.width <= target:
            return out
        slack *= 2
        if slack > 4 * DEFAULT_PRECISION_CAP:
            raise RuntimeError("embedding refinement failed to converge")


def embed_sign(a: FieldElem, idx: int) -> int:
    """Exact sign of emb_idx(a): refine until the interval excludes 0."""
    if a.is_zero():
        return 0
    if a.is_rational():
        q = a.coeffs[0]
        return 0 if q == 0 else (1 if q > 0 else -1)
    bits = 8
    while True:
        iv = embed(a, idx, bits)
        s = iv.sign()
        if s is not None:
            return s
        bits *= 2
        if bits > DEFAULT_PRECISION_CAP:
            # a is nonzero exact, so its embedding can only be 0 if the
            # element is a root of min_poly's proper factor: impossible.
            raise RuntimeError("sign refinement failed to converge")


def is_totally_positive(a: FieldElem) -> bool:
    return all(embed_sign(a, i) > 0 for i in range(a.field.degree))


# ---------------------------------------------------------------------------
# fundamental units of real quadratic fields


def _squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def fundamental_unit_quadratic(D: int) -> FieldElem:
    """Fundamental unit > 1 of the maximal order of Q(sqrt(D)).

    Found on the continued fraction of sqrt(D) (or (1+sqrt(D))/2 when
    D = 1 mod 4): the first convergent p/q with p - q*conj(omega) of
    norm +-1 is the fundamental unit.
    """
    if D <= 1 or not _squarefree(D):
        raise NotSquarefree(f"D={D} must be squarefree and > 1")
    fld = make_field([-D, 0, 1])
    sqrt_d = fld.gen
    if D % 4 == 1:
        omega = (sqrt_d + 1) * Fraction(1, 2)
        p0, q0 = 1, 2  # omega = (P + sqrt(D))/Q
    else:
        omega = sqrt_d
        p0, q0 = 0, 1
    conj_omega = trace(omega) - omega
    isq = math.isqrt(D)
    # continued fraction of (P + sqrt(D))/Q via the integer PQa recurrence
    P, Q = p0, q0
    h_prev, h = 1, None
    k_prev, k = 0, None
    for step in range(10_000):
        a = (P + isq) // Q
        if step == 0:
            h, k = a, 1
        else:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        cand = fld.element([h]) - conj_omega * k
        n = norm(cand)
        if abs(n) == 1 and not (cand == fld.one) and not (cand == -fld.one):
            return cand
        P = a * Q - P
        Q = (D - P * P) // Q
    raise RuntimeError("continued fraction did not locate a unit")


def totally_positive_fundamental(eps: FieldElem) -> FieldElem:
    """eps if it is a totally positive unit of norm +1, else eps squared."""
    if norm(eps) == 1 and is_totally_positive(eps):
        return eps
    return eps * eps


# ---------------------------------------------------------------------------
# the certified symmetrized norm


def _symmetrization_group(fld: Field):
    if fld.galois is not None:
        return fld.galois
    return tuple(itertools.permutations(range(fld.degree)))


def _conjugate_quadratic(a: FieldElem) -> FieldElem:
    return a.field.element([trace(a)]) - a


def symmetrized_norm(eps: FieldElem, e, fld: Field | None = None,
                     precision_cap: int = DEFAULT_PRECISION_CAP):
    """Certified integer prod_{sigma in G}(prod_tau emb_{sigma(tau)}(eps)^e_tau - 1).

    G is the field's Galois permutation data when present, else the full
    symmetric group (in which case the result is an integer multiple of
    the true norm; divisibility remains a sound exclusion certificate).

    Returns a CertifiedInteger, the Zero sentinel (only on an exact proof),
    or raises Indeterminate when the interval still straddles 0 at the cap.
    """
    fld = fld or eps.field
    e = tuple(int(x) for x in e)
    d = fld.degree
    if len(e) != d:
        raise ValueError("exponent vector length must equal the degree")
    n_eps = norm(eps)
    if abs(n_eps) != 1:
        raise ValueError("symmetrized_norm requires a unit (norm +-1)")
    group = _symmetrization_group(fld)

    if all(x == 0 for x in e):
        return ZERO

    # exact path: rational unit (+-1)
    if eps.is_rational():
        r = eps.as_rational()
        val = r ** sum(e) - 1
        if val == 0:
            return ZERO
        prod = val ** len(group)
        return CertifiedInteger(int(prod), Fraction(0))

    # exact path: constant exponent vector; each factor is norm(eps)^c - 1
    if len(set(e)) == 1:
        c = e[0]
        val = n_eps**c - 1
        if val == 0:
            return ZERO
        prod = val ** len(group)
        assert prod.denominator == 1
        return CertifiedInteger(int(prod), Fraction(0))

    # exact path: quadratic field; the product is a norm from the field
    if d == 2:
        u = eps ** e[0] * _conjugate_quadratic(eps) ** e[1]
        val = norm(u - fld.one)
        if val == 0:
            return ZERO
        assert val.denominator == 1
        return CertifiedInteger(int(val), Fraction(0))

    # interval certification with escalating precision
    bits = 64
    while bits <= precision_cap:
        try:
            iv = _interval_product(eps, e, fld, group, bits)
        except ZeroDivisionError:
            # an embedding interval still straddles zero: refine further
            bits *= 2
            continue
        if iv.width < Fraction(1, 2) and not iv.straddles_zero():
            lo_int = math.ceil(iv.lo)
            if lo_int <= iv.hi:
                return CertifiedInteger(lo_int, iv.width)
            # no integer inside: inconsistent Galois data; keep escalating
        bits *= 2
    raise Indeterminate(precision_cap)


def _interval_product(eps, e, fld, group, bits):
    embs = [embed(eps, i, bits) for i in range(fld.degree)]
    powers: dict[tuple[int, int], DyadicInterval] = {}
    for i in range(fld.degree):
        for exp in set(e):
            powers[(i, exp)] = embs[i].power(exp, bits)
    one = DyadicInterval(Fraction(1), Fraction(1))
    total = one
    for g in group:
        factor = one
        for tau, exp in enumerate(e):
            factor = (factor * powers[(g[tau], exp)]).round(bits)
        total = (total * (factor - one)).round(bits)
    return total


def symmetrized_difference_norm(eps: FieldElem, e_on, e_off, subset,
                                fld: Field | None = None,
                                precision_cap: int = DEFAULT_PRECISION_CAP):
    """Certified integer for the two-product difference form.

    prod_{sigma in G}( prod_{tau in J} emb_{sigma(tau)}(eps)^{e_on_tau}
                       - prod_{tau not in J} emb_{sigma(tau)}(eps)^{e_off_tau} ).

    The convention is that the second product carries the exponents that
    make the expression a unit multiple of the single-product form, so the
    two certified integers agree up to sign.
    """
    fld = fld or eps.field
    d = fld.degree
    subset = frozenset(subset)
    group = _symmetrization_group(fld)
    if abs(norm(eps)) != 1:
        raise ValueError("requires a unit")

    if eps.is_rational():
        r = eps.as_rational()
        a = r ** sum(e_on[t] for t in subset)
        b = r ** sum(e_off[t] for t in range(d) if t not in subset)
        val = a - b
        if val == 0:
            return ZERO
        prod = val ** len(group)
        return CertifiedInteger(int(prod), Fraction(0))

    if d == 2:
        conj = _conjugate_quadratic(eps)
        parts = [eps, conj]
        a = fld.one
        b = fld.one
        for t in range(2):
            if t in subset:
                a = a * parts[t] ** e_on[t]
            else:
                b = b * parts[t] ** e_off[t]
        val = norm(a - b)
        if val == 0:
            return ZERO
        assert val.denominator == 1
        return CertifiedInteger(int(val), Fraction(0))

    exps = [e_on[t] if t in subset else e_off[t] for t in range(d)]
    bits = 64
    one = DyadicInterval(Fraction(1), Fraction(1))
    while bits <= precision_cap:
        try:
            embs = [embed(eps, i, bits) for i in range(d)]
            powers = {(i, exp): embs[i].power(exp, bits)
                      for i in range(d) for exp in set(exps)}
            total = one
            for g in group:
                a = one
                b = one
                for t in range(d):
                    if t in subset:
                        a = (a * powers[(g[t], exps[t])]).round(bits)
                    else:
                        b = (b * powers[(g[t], exps[t])]).round(bits)
                total = (total * (a - b)).round(bits)
        except ZeroDivisionError:
            bits *= 2
            continue
        if total.width < Fraction(1, 2) and not total.straddles_zero():
            lo_int = math.ceil(total.lo)
            if lo_int <= total.hi:
                return CertifiedInteger(lo_int, total.width)
        bits *= 2
    raise Indeterminate(precision_cap)


# ---------------------------------------------------------------------------
# orbit reduction for d = 2


def _ratio_compare(x: FieldElem, y: FieldElem) -> int:
    """Sign of emb_1(x)/emb_0(x) - emb_1(y)/emb_0(y), both totally positive."""
    # emb1(x) emb0(y) - emb1(y) emb0(x): sign via exact refinement of the
    # quadratic field element emb1(x * sigma(y)) - emb1(y * sigma(x))
    delta = x * _conjugate_quadratic(y) - y * _conjugate_quadratic(x)
    if delta.is_zero():
        return 0
    return embed_sign(delta, 1)


def orbit_reduce(xi: FieldElem, eps0: FieldElem) -> FieldElem:
    """Canonical representative of the even-unit-power orbit of xi (d = 2).

    Returns eps0^(2j) * xi for the unique j with embedding ratio
    emb_1/emb_0 inside [1, ratio(eps0^2)).
    """
    fld = xi.field
    if fld.degree != 2:
        raise UnsupportedDegree("orbit reduction is implemented for degree 2")
    if not is_totally_positive(xi):
        raise NotTotallyPositive("xi must be totally positive")
    if not is_totally_positive(eps0):
        raise NotTotallyPositive("eps0 must be totally positive")
    if embed_sign(eps0 - fld.one, 1) <= 0:
        raise ValueError("eps0 must exceed 1 under the last embedding")
    sq = eps0 * eps0
    out = xi
    # push ratio below ratio(eps0^2)
    while _ratio_compare(out, sq) >= 0:
        out = out * sq.inverse()
    # push ratio to >= 1
    while _ratio_compare(out, fld.one) < 0:
        out = out * sq
    return out
