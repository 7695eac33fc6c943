"""Exact arithmetic in totally real number fields with certified embeddings.

A Field is a monic irreducible integer polynomial together with isolating
intervals for its real roots (ascending) and optional Galois permutation
data on the embedding indices.  Elements are rational coordinate vectors
in the power basis; all arithmetic is exact.  A product is a remainder by
the monic min_poly, and an inverse is one fraction-free solve
(exact._solve) against the integer matrix of multiplication.  Real
embeddings are dyadic intervals that provably contain the exact value.

A root is an integer cell (lo_m, hi_m, exp, sign of min_poly at lo), the
root in (lo_m / 2^exp, hi_m / 2^exp], from isolation on: exact's
_root_cells isolates the roots on the integer Sturm chain, and exact's
_bisect refines a cell.

A DyadicInterval is two integer mantissas over one power of two,
[lo_m / 2^exp, hi_m / 2^exp], so interval arithmetic is integer
arithmetic: a product multiplies mantissas and adds exponents, outward
rounding is a floor or ceiling shift, inverse and sqrt are floor and
ceiling divisions and isqrt.  embed runs Horner on an element's integer
numerators over one common denominator at a root's cell, and norm and
trace read the integer matrix of multiplication by the element.

make_field decides irreducibility exactly, at every degree.  With d simple
real roots, Gauss's lemma makes the polynomial reducible exactly when
prod (x - r) over some k-subset of the roots, k <= d/2, has integer
coefficients.  The roots are refined until each such coefficient lies in
an interval narrower than 1, which leaves at most one candidate factor
per subset, tried by exact division.

The certified kernel is symmetrized_norm: the integer
prod_{sigma in G} ( prod_tau emb_{sigma(tau)}(eps)^{e_tau} - 1 ),
and its two-product form symmetrized_difference_norm.  At every degree,
quadratic fields included, the integer comes from the interval kernel
_certified_product, and DyadicInterval.power raises intervals by squaring.
The kernel takes a _PowerTable of intervals (a function of the bits) and a
permutation group on their indices, so the dihedral criterion runs on it
too: the 2d real embeddings of K = F(sqrt(delta)) under C_2 wr G, with
J = every position.  _certify, the one precision-escalation loop, doubles
the bits from 64 up to the cap until the interval pins an integer.  The
product is a rational integer, since eps is an algebraic integer and the
product is invariant under G, so an interval narrower than 1/2 proves the
one integer inside it, 0 included: a zero is proven as a non-zero value
is, from the same enclosure and the same data.

A certificate evaluates both forms for every subset J on the same unit,
so the per-unit work is done once.  The field keeps, beside its root
cache, one _UnitMemo per element value (each element object looks it up
once): norm(eps) and, per precision level, a _PowerTable of the d
embedding intervals of eps with their powers, filled in on first use.  A
level's table is used only while the root cells embed would start from,
_refined_root(i, bits + 4), are the ones it was built from.  embed's
output is a function of those cells, so a hit is exactly the interval
embed would compute now; once a deeper level has refined the roots, the
table is rebuilt in place.  _interval_product runs over the tables'
integer mantissas (lo_m, hi_m, exp) in one flat loop, with the multiply,
align-subtract and rounding steps of the DyadicInterval operations in the
same order, so its intervals are bit-identical to theirs.

The factor of sigma depends on sigma only through the labelling it puts
on the embeddings: embedding sigma(tau) gets (tau in J, e_tau).  Elements
with one labelling form a coset of H = G ∩ Stab(labels), so the product
over G is exactly (prod over one element per coset)^|H|, and the interval
evaluation computes each distinct factor once and raises the result to
|H|.  When the labels are pairwise distinct, or when G is Galois data of
prime degree and the labels are not all equal, H is trivial: the
representatives are G itself, in its order, and the interval operations
are those of the plain product over G.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .exact import (_Frozen, _as_int, _bisect, _charpoly, _poly_mul, _poly_rem, _poly_trim,
                    _root_cells, _solve, _sturm_chain, bareiss_det)


class NotIrreducible(ValueError):
    pass


class NotTotallyReal(ValueError):
    pass


class NotSquarefree(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class NotTotallyPositive(ValueError):
    pass


class UnsupportedDegree(Exception):
    pass


class Indeterminate(Exception):
    """Interval certification reached the escalation cap without pinning an
    integer: the last interval was 1/2 or wider, or held no integer (as
    inconsistent Galois data can make it)."""

    def __init__(self, max_bits: int):
        super().__init__(f"indeterminate after escalating to {max_bits} bits")
        self.max_bits = max_bits


DEFAULT_PRECISION_CAP = 2**16
_START_BITS = 64  # the first precision level of _certify


# ---------------------------------------------------------------------------
# dyadic intervals


def _dyadic_exp(q: Fraction) -> int:
    """k with denominator 2^k; ValueError if q is not dyadic."""
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not a dyadic rational")
    return den.bit_length() - 1


def _ceil_shift(m: int, k: int) -> int:
    """ceil(m / 2^k) for k >= 0."""
    return -((-m) >> k)


def _interval(lo_m: int, hi_m: int, exp: int) -> "DyadicInterval":
    """DyadicInterval from mantissas, unchecked (callers keep lo_m <= hi_m)."""
    out = object.__new__(DyadicInterval)
    out.lo_m = lo_m
    out.hi_m = hi_m
    out.exp = exp
    return out


def _mantissa_product(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Endpoints of [a, b] * [c, d] for integers a <= b, c <= d."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
    elif b <= 0:
        if d <= 0:
            return b * d, a * c
        if c >= 0:
            return a * d, b * c
    prods = (a * c, a * d, b * c, b * d)
    return min(prods), max(prods)


class DyadicInterval:
    """Closed interval [lo_m / 2^exp, hi_m / 2^exp] with integer mantissas.

    Built from dyadic endpoints as DyadicInterval(lo, hi); lo and hi read
    them back as Fractions.  Instances are not modified after construction.
    """

    __slots__ = ("lo_m", "hi_m", "exp")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        lo_e, hi_e = _dyadic_exp(lo), _dyadic_exp(hi)
        self.exp = max(lo_e, hi_e)
        self.lo_m = lo.numerator << (self.exp - lo_e)
        self.hi_m = hi.numerator << (self.exp - hi_e)

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int | None = None) -> "DyadicInterval":
        q = Fraction(q)
        den = q.denominator
        if den & (den - 1) == 0:
            return _interval(q.numerator, q.numerator, den.bit_length() - 1)
        if bits is None:
            raise ValueError(f"{q} is not dyadic and no precision was given")
        num = q.numerator << bits
        return _interval(num // den, -(-num // den), bits)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_m, 1 << self.exp)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_m, 1 << self.exp)

    @property
    def center(self) -> Fraction:
        return Fraction(self.lo_m + self.hi_m, 2 << self.exp)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.hi_m - self.lo_m, 2 << self.exp)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_m - self.lo_m, 1 << self.exp)

    def __eq__(self, other):
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"DyadicInterval(lo={self.lo!r}, hi={self.hi!r})"

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo_m <= 0 <= self.hi_m

    def sign(self) -> int | None:
        """+1, -1, or None if the interval contains 0."""
        if self.lo_m > 0:
            return 1
        if self.hi_m < 0:
            return -1
        return None

    def _aligned(self, other) -> tuple[int, int, int, int, int]:
        """(lo_m, hi_m, other.lo_m, other.hi_m, exp) over the finer exponent."""
        k = self.exp - other.exp
        if k >= 0:
            return self.lo_m, self.hi_m, other.lo_m << k, other.hi_m << k, self.exp
        return self.lo_m << -k, self.hi_m << -k, other.lo_m, other.hi_m, other.exp

    def __add__(self, other):
        a, b, c, d, exp = self._aligned(other)
        return _interval(a + c, b + d, exp)

    def __sub__(self, other):
        a, b, c, d, exp = self._aligned(other)
        return _interval(a - d, b - c, exp)

    def __neg__(self):
        return _interval(-self.hi_m, -self.lo_m, self.exp)

    def __mul__(self, other):
        lo_m, hi_m = _mantissa_product(self.lo_m, self.hi_m, other.lo_m, other.hi_m)
        return _interval(lo_m, hi_m, self.exp + other.exp)

    def round(self, bits: int) -> "DyadicInterval":
        """Outward rounding to the 2^-bits grid."""
        k = self.exp - bits
        if k <= 0:
            return self
        return _interval(self.lo_m >> k, _ceil_shift(self.hi_m, k), bits)

    def inverse(self, bits: int) -> "DyadicInterval":
        if self.straddles_zero():
            raise ZeroDivisionError("interval contains zero")
        num = 1 << (self.exp + bits)
        return _interval(num // self.hi_m, -(-num // self.lo_m), bits)

    def power(self, e: int, bits: int) -> "DyadicInterval":
        """self^e by binary square-and-multiply, from the leading bit of |e|
        down, rounded to bits after every product; a negative e inverts first."""
        if e == 0:
            return _interval(1, 1, 0)
        base = self if e > 0 else self.inverse(bits)
        n = abs(e)
        out = base
        for k in reversed(range(n.bit_length() - 1)):
            out = (out * out).round(bits)
            if n >> k & 1:
                out = (out * base).round(bits)
        return out

    def sqrt(self, bits: int) -> "DyadicInterval":
        """[lo', hi'] on the 2^-bits grid with lo'^2 <= lo and hi <= hi'^2."""
        if self.lo_m < 0:
            raise ValueError("interval extends below zero")
        k = 2 * bits - self.exp
        if k >= 0:
            lo_s, hi_s = self.lo_m << k, self.hi_m << k
        else:
            lo_s, hi_s = self.lo_m >> -k, _ceil_shift(self.hi_m, -k)
        hi_n = math.isqrt(hi_s)
        if hi_n * hi_n < hi_s:
            hi_n += 1
        return _interval(math.isqrt(lo_s), hi_n, bits)

    def pinned_integer(self) -> int | None:
        """The integer inside when the width is < 1/2, else None."""
        lo_m, hi_m, exp = self.lo_m, self.hi_m, self.exp
        if (hi_m - lo_m) << 1 >= 1 << exp:
            return None
        n = _ceil_shift(lo_m, exp)
        return n if n << exp <= hi_m else None


class CertifiedInteger(namedtuple("CertifiedInteger", "value final_width")):
    """Integer pinned by an interval of width < 1/2 around it."""

    __slots__ = ()

    def __new__(cls, value: int, final_width: Fraction):
        if not final_width < Fraction(1, 2):
            raise ValueError("certifying interval is too wide")
        return super().__new__(cls, value, final_width)


class Zero:
    """Sentinel for a proven zero of symmetrized_norm."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"


ZERO = Zero()


# ---------------------------------------------------------------------------
# real roots as integer cells


def _isolate_real_roots(coeffs) -> list[tuple[int, int, int, int]]:
    """exact._root_cells of coeffs.  Raises NotIrreducible on a repeated factor
    (the Sturm chain ends in gcd(p, p') of positive degree), then NotTotallyReal."""
    chain = _sturm_chain(coeffs)
    if len(chain[-1]) > 1:
        raise NotIrreducible(f"{coeffs} has a repeated factor")
    cells, d = _root_cells(chain), len(coeffs) - 1
    if len(cells) < d:
        raise NotTotallyReal(f"only {len(cells)} real roots for degree {d}")
    return cells


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


class Field(_Frozen):
    """Totally real number field Q[x]/(min_poly) with ordered real embeddings.

    min_poly is monic, low degree first; embeddings are isolating intervals
    (lo, hi], one per real root: the ends of the cells _refined_root starts
    from.  Equality and hashing ignore the cells and the two caches.
    """

    def __init__(self, min_poly: tuple[int, ...],
                 embeddings: tuple[tuple[Fraction, Fraction], ...],
                 galois: tuple[tuple[int, ...], ...] | None, degree: int,
                 _cells: tuple | None = None):
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "galois", galois)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_root_cache", {})
        object.__setattr__(self, "_unit_cache", {})
        if _cells is not None:
            object.__setattr__(self, "_cells", _cells)

    @cached_property
    def _cells(self) -> tuple:
        """The isolating cells, when the caller did not pass make_field's."""
        return tuple(_isolate_real_roots(list(self.min_poly)))

    def _key(self):
        return self.min_poly, self.embeddings, self.galois, self.degree

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
        # the Galois data is shown when make_field(min_poly) would not pick it,
        # so two fields with one polynomial never print alike
        if self.galois == _default_galois(self.degree, self.min_poly):
            return f"Field({list(self.min_poly)})"
        galois = None if self.galois is None else [list(g) for g in self.galois]
        return f"Field({list(self.min_poly)}, galois={galois})"

    # --- root refinement -------------------------------------------------

    def _refined_root(self, idx: int, bits: int) -> tuple[int, int, int]:
        """Root idx as mantissas (lo_m, hi_m, exp) of width <= 2^-bits.

        The first call bisects the root's isolating cell, and later calls
        continue from the deepest cell so far, so the intervals returned for
        one root are nested.
        """
        root = self._root_cache.get(idx) or self._cells[idx]
        root = _bisect(self.min_poly, root, bits)
        self._root_cache[idx] = root
        return root[:3]


class FieldElem(_Frozen):
    """An element of field by its rational coordinates in the power basis.

    _unit_memo, a cached_property, is kept in the instance __dict__.
    """

    def __init__(self, field: Field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

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
        prod = _poly_mul(self.coeffs, other.coeffs)
        return FieldElem(self.field, tuple(_poly_rem(prod, self.field.min_poly)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Solve M^T y = den * e_0 for the integer matrix M of _integer_mult_matrix."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        den, rows = _integer_mult_matrix(self)
        det, y = _solve(list(zip(*rows)), [[den]] + [[0]] * (self.field.degree - 1))
        return FieldElem(self.field, tuple(Fraction(v, det) for (v,) in y))

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

    @cached_property
    def _unit_memo(self) -> "_UnitMemo":
        """The field's _UnitMemo for this value, looked up once per element."""
        cache = self.field._unit_cache
        unit = cache.get(self.coeffs)
        if unit is None:
            unit = cache[self.coeffs] = _UnitMemo(self)
        return unit

    def __repr__(self):
        return f"FieldElem{self.coeffs}"


def make_field(coeffs, galois=None) -> Field:
    """Build a totally real field from the monic integer minimal polynomial.

    coeffs is low degree first, each an integer.  A polynomial with a
    repeated factor raises NotIrreducible, then one with fewer than d real
    roots raises NotTotallyReal, then one with a monic integer factor of
    degree at most d/2 raises NotIrreducible.  The root cells of the one
    isolation serve the factor test and the field's root refinement, and
    the embeddings are their endpoints.  Degree-2 fields default to
    the swap Galois group, cyclic cubics (square discriminant) to the
    3-cycle group; other degrees carry no Galois data unless supplied.
    Supplied data must be a transitive permutation group, and on a cubic a
    group of order 3 needs a square discriminant.
    """
    coeffs = [_as_int(c, "min_poly coefficient") for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(coeffs) - 1
    cells = _isolate_real_roots(coeffs)
    if d > 1 and _has_small_factor(coeffs, cells):
        raise NotIrreducible(f"{coeffs} has a rational factor")
    if galois is not None:
        galois = tuple(tuple(_as_int(i, "galois entry") for i in perm) for perm in galois)
        _validate_galois(galois, d)
        if d == 3 and len(galois) == 3 and not _cubic_is_cyclic(coeffs):
            raise ValueError(
                "galois data of order 3 needs a cyclic cubic, but the discriminant "
                f"{_cubic_discriminant(coeffs)} is not a square")
    else:
        galois = _default_galois(d, coeffs)
    embeddings = tuple((Fraction(lo_m, 1 << exp), Fraction(hi_m, 1 << exp))
                       for lo_m, hi_m, exp, _ in cells)
    return Field(min_poly=tuple(coeffs), embeddings=embeddings, galois=galois, degree=d,
                 _cells=tuple(cells))


def _has_small_factor(p, roots) -> bool:
    """Whether p, of degree d >= 2 with every root real, simple and isolated
    by the cells roots, has a monic integer factor prod (x - r) over a
    k-subset of the roots, 1 <= k <= d/2.  Each coefficient's interval ends
    narrower than 1, so the candidate is the one integer (if any) inside
    each, and exact division by the monic candidate decides it.
    """
    d = len(p) - 1
    bits = 1
    while True:
        roots = [_bisect(p, r, bits) for r in roots]
        ivs = [_interval(*r[:3]) for r in roots]
        # subset -> coefficients of prod (x - r) but the leading 1, low first;
        # each is its prefix's product times x - r
        products = {(i,): [-r] for i, r in enumerate(ivs)}
        for k in range(2, d // 2 + 1):
            for s in itertools.combinations(range(d), k):
                c, r = products[s[:-1]], ivs[s[-1]]
                products[s] = [-(r * c[0]), *(a - r * b for a, b in zip(c, c[1:])), c[-1] - r]
        if all(c.width < 1 for coeffs in products.values() for c in coeffs):
            break
        bits *= 2
    return any(not any(_poly_rem(p, [*f, 1])) for coeffs in products.values()
               for f in itertools.product(*map(_integers_in, coeffs)))


def _integers_in(iv: DyadicInterval) -> range:
    return range(_ceil_shift(iv.lo_m, iv.exp), (iv.hi_m >> iv.exp) + 1)


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


def _integer_coords(a: FieldElem) -> tuple[int, list[int]]:
    """(den, nums): a's coordinates are nums[i] / den, den > 0."""
    den = math.lcm(*(c.denominator for c in a.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in a.coeffs]


def _integer_mult_matrix(a: FieldElem) -> tuple[int, list[list[int]]]:
    """(den, rows): rows / den is the matrix of multiplication by a.

    Row i holds the power-basis coordinates of a * x^i; each row is the one
    above shifted up a degree and reduced by the monic min_poly.
    """
    p = a.field.min_poly
    den, row = _integer_coords(a)
    rows = [row]
    for _ in range(a.field.degree - 1):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, p)]
        rows.append(row)
    return den, rows


def norm(a: FieldElem) -> Fraction:
    """Absolute norm down to Q (determinant of the multiplication matrix)."""
    den, rows = _integer_mult_matrix(a)
    return Fraction(bareiss_det(rows), den ** a.field.degree)


def _is_integral(a: FieldElem) -> bool:
    """Whether a is an algebraic integer.

    With M = den * (matrix of multiplication by a) and charpoly(M) =
    sum c_k x^k, a's characteristic polynomial is sum c_k den^(k-d) x^k,
    which has integer coefficients exactly when a is integral.
    """
    den, rows = _integer_mult_matrix(a)
    d = a.field.degree
    return all(c % den ** (d - k) == 0 for k, c in enumerate(_charpoly(rows)))


def trace(a: FieldElem) -> Fraction:
    den, rows = _integer_mult_matrix(a)
    return Fraction(sum(rows[i][i] for i in range(a.field.degree)), den)


def embed(a: FieldElem, idx: int, precision_bits: int) -> DyadicInterval:
    """Dyadic interval of width <= 2^-precision_bits containing emb_idx(a)."""
    fld = a.field
    if not 0 <= idx < fld.degree:
        raise ValueError("embedding index out of range")
    if a.is_rational():
        return DyadicInterval.from_fraction(a.coeffs[0], precision_bits + 1)
    den, nums = _integer_coords(a)
    _poly_trim(nums)
    slack = 4
    while True:
        bits = precision_bits + slack
        lo_m, hi_m, exp = fld._refined_root(idx, bits)
        # exact interval Horner on den * 2^(exp*k) * (partial sum after k steps)
        acc_lo = acc_hi = nums[-1]
        for k, n in enumerate(reversed(nums[:-1]), 1):
            acc_lo, acc_hi = _mantissa_product(acc_lo, acc_hi, lo_m, hi_m)
            acc_lo += n << (exp * k)
            acc_hi += n << (exp * k)
        # outward rounding of acc / (den * 2^(exp*k)) to the 2^-bits grid
        shift = exp * (len(nums) - 1) - bits
        if shift >= 0:
            div = den << shift
            out_lo, out_hi = acc_lo // div, -(-acc_hi // div)
        else:
            out_lo, out_hi = (acc_lo << -shift) // den, -((-acc_hi << -shift) // den)
        if out_hi - out_lo <= 1 << slack:
            return _interval(out_lo, out_hi, bits)
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


def symmetrized_norm(eps: FieldElem, e, precision_cap: int = DEFAULT_PRECISION_CAP):
    """Certified integer prod_{sigma in G}(prod_tau emb_{sigma(tau)}(eps)^e_tau - 1).

    G is the field's Galois permutation data when present, else the full
    symmetric group (in which case the result is an integer multiple of
    the true norm; divisibility remains a sound exclusion certificate).
    eps must be a unit: an algebraic integer of norm +-1.

    The integer comes from the interval kernel at every degree, quadratic
    fields included.  Returns a CertifiedInteger, the Zero sentinel when
    the integer is 0, or raises Indeterminate when no integer is pinned at
    precision_cap bits.
    """
    fld = eps.field
    e = tuple(_as_int(x, "exponent") for x in e)
    d = fld.degree
    if len(e) != d:
        raise ValueError("exponent vector length must equal the degree")
    unit = eps._unit_memo
    if not unit.is_unit:
        raise ValueError("symmetrized_norm requires a unit (an algebraic integer of norm +-1)")
    return _certified_product(unit.table, e, range(d), _symmetrization_group(fld),
                              precision_cap)


def symmetrized_difference_norm(eps: FieldElem, e_on, e_off, subset,
                                precision_cap: int = DEFAULT_PRECISION_CAP):
    """Certified integer for the two-product difference form.

    prod_{sigma in G}( prod_{tau in J} emb_{sigma(tau)}(eps)^{e_on_tau}
                       - prod_{tau not in J} emb_{sigma(tau)}(eps)^{e_off_tau} ).

    The convention is that the second product carries the exponents that
    make the expression a unit multiple of the single-product form, so the
    two certified integers agree up to sign.
    """
    fld = eps.field
    subset = frozenset(subset)
    group = _symmetrization_group(fld)
    unit = eps._unit_memo
    if not unit.is_unit:
        raise ValueError("requires a unit (an algebraic integer of norm +-1)")
    exps = [_as_int(e_on[t] if t in subset else e_off[t], "exponent")
            for t in range(fld.degree)]
    return _certified_product(unit.table, exps, subset, group, precision_cap)


class _PowerTable:
    """Intervals x_0, x_1, ... at one precision level and their powers.

    row(e) lists x_i.power(e, bits) for every i as mantissa triples
    (lo_m, hi_m, exp), computed on the first request for e and kept.
    """

    __slots__ = ("xs", "bits", "_rows")

    def __init__(self, xs, bits: int):
        self.xs = tuple(xs)
        self.bits = bits
        self._rows = {}

    def row(self, e: int) -> tuple[tuple[int, int, int], ...]:
        row = self._rows.get(e)
        if row is None:
            powers = [x.power(e, self.bits) for x in self.xs]
            row = self._rows[e] = tuple((p.lo_m, p.hi_m, p.exp) for p in powers)
        return row


class _UnitMemo:
    """norm(eps), whether eps is a unit, and per precision level the
    _PowerTable of eps's embeddings.

    A level's table is kept with the root cells embed would start from,
    fld._refined_root(i, bits + 4), and is used only while those cells are
    unchanged: embed's output is a function of them, so a kept table holds
    exactly the intervals embed would compute now.  Otherwise the level's
    table is rebuilt in place.
    """

    __slots__ = ("eps", "norm", "is_unit", "_levels")

    def __init__(self, eps: FieldElem):
        self.eps = eps
        self.norm = norm(eps)
        self.is_unit = abs(self.norm) == 1 and _is_integral(eps)
        self._levels = {}

    def table(self, bits: int) -> _PowerTable:
        eps = self.eps
        fld = eps.field
        cells = [fld._refined_root(i, bits + 4) for i in range(fld.degree)]
        level = self._levels.get(bits)
        if level is None or level[0] != cells:
            xs = [embed(eps, i, bits) for i in range(fld.degree)]
            level = self._levels[bits] = (cells, _PowerTable(xs, bits))
        return level[1]


def _certified_product(tables, e, subset, group, cap):
    """_certify of prod_{g in group}(prod_{t in J} x_{g(t)}^e_t - prod_{t not in J} x_{g(t)}^e_t).

    tables(bits) is a _PowerTable of intervals around the reals x_0, x_1,
    ...; group permutes their indices.  The caller vouches that the
    product is a rational integer.
    """
    reps, stabilizer_order = _label_cosets(e, subset, group)
    return _certify(lambda bits: _interval_product(tables(bits), e, subset, reps,
                                                   stabilizer_order), cap)


def _label_cosets(e, subset, group):
    """The first element of each labelling class of group, and the class size |H|.

    g labels the embedding g(t) with (t in J, e_t), and the factor of g
    depends on g only through this labelling.  The classes are the cosets
    gH of H = G ∩ Stab(labels), so every class has |G| / #classes elements.
    """
    firsts = {}
    for g in group:
        labels = [None] * len(e)
        for t, exp in enumerate(e):
            labels[g[t]] = (t in subset, exp)
        firsts.setdefault(tuple(labels), g)
    return tuple(firsts.values()), len(group) // len(firsts)


def _interval_product(table, e, subset, reps, stabilizer_order):
    """The kernel's interval at table.bits, on integer mantissas (lo_m, hi_m, exp).

    For each g in reps, the products over t in J and over t not in J of
    x_{g(t)}^e_t, each rounded outward after every factor; their difference
    multiplies the running total, which is rounded; the total is raised to
    stabilizer_order.  These are the DyadicInterval operations, in order.
    """
    bits = table.bits
    on = [(t, table.row(x)) for t, x in enumerate(e) if t in subset]
    off = [(t, table.row(x)) for t, x in enumerate(e) if t not in subset]
    lo = hi = 1
    exp = 0
    for g in reps:
        a_lo, a_hi, a_exp = _rounded_product(on, g, bits)
        b_lo, b_hi, b_exp = _rounded_product(off, g, bits)
        k = a_exp - b_exp
        if k >= 0:
            d_lo, d_hi, d_exp = a_lo - (b_hi << k), a_hi - (b_lo << k), a_exp
        else:
            d_lo, d_hi, d_exp = (a_lo << -k) - b_hi, (a_hi << -k) - b_lo, b_exp
        lo, hi = _mantissa_product(lo, hi, d_lo, d_hi)
        exp += d_exp
        k = exp - bits
        if k > 0:
            lo, hi, exp = lo >> k, _ceil_shift(hi, k), bits
    total = _interval(lo, hi, exp)
    if stabilizer_order > 1:
        total = total.power(stabilizer_order, bits)
    return total


def _rounded_product(terms, g, bits):
    """prod over (t, row) in terms of row[g[t]], rounded to bits after each factor."""
    lo = hi = 1
    exp = 0
    for t, row in terms:
        p_lo, p_hi, p_exp = row[g[t]]
        lo, hi = _mantissa_product(lo, hi, p_lo, p_hi)
        exp += p_exp
        k = exp - bits
        if k > 0:
            lo, hi, exp = lo >> k, _ceil_shift(hi, k), bits
    return lo, hi, exp


def _certify(evaluate, cap: int) -> CertifiedInteger | Zero:
    """The integer pinned by evaluate(bits) at 64, 128, ... bits up to cap.

    evaluate returns an interval around an exact rational integer, so an
    interval narrower than 1/2 proves the one integer inside it: ZERO when
    it is 0, else a CertifiedInteger.  A ZeroDivisionError (an inverted
    interval still holds 0) or an interval that pins no integer asks for
    twice the bits; past cap this raises Indeterminate(cap).
    """
    bits = _START_BITS
    while bits <= cap:
        try:
            iv = evaluate(bits)
        except ZeroDivisionError:
            bits *= 2
            continue
        value = iv.pinned_integer()
        if value == 0:
            return ZERO
        if value is not None:
            return CertifiedInteger(value, iv.width)
        bits *= 2
    raise Indeterminate(cap)


# ---------------------------------------------------------------------------
# orbit reduction for d = 2


def _conjugate_quadratic(a: FieldElem) -> FieldElem:
    return a.field.element([trace(a)]) - a


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
