import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nfield_oracles
from hmfcert import nfield
from hmfcert.exact import _sign_at
from hmfcert.nfield import (
    CertifiedInteger,
    DyadicInterval,
    Indeterminate,
    NotSquarefree,
    NotTotallyPositive,
    NotTotallyReal,
    UnsupportedDegree,
    ZERO,
    Zero,
    _certify,
    embed,
    embed_sign,
    fundamental_unit_quadratic,
    is_totally_positive,
    make_field,
    norm,
    orbit_reduce,
    symmetrized_difference_norm,
    symmetrized_norm,
    totally_positive_fundamental,
    trace,
)
from hmfcert.nfield import NotIrreducible


@pytest.fixture(scope="module")
def q5():
    return make_field([-5, 0, 1])


@pytest.fixture(scope="module")
def eps0(q5):
    return q5.element([Fraction(3, 2), Fraction(1, 2)])


class TestMakeField:
    def test_quadratic(self, q5):
        assert q5.degree == 2
        lo0, hi0 = q5.embeddings[0]
        lo1, hi1 = q5.embeddings[1]
        assert lo0 <= -2 <= hi0 and lo1 <= 2 <= hi1
        assert q5.galois == ((0, 1), (1, 0))

    def test_not_totally_real(self):
        with pytest.raises(NotTotallyReal):
            make_field([1, 0, 1])

    def test_reducible(self):
        with pytest.raises(NotIrreducible):
            make_field([-1, 0, 1])  # x^2 - 1

    def test_cyclic_cubic(self):
        f = make_field([-1, -3, 0, 1])
        assert f.degree == 3
        assert f.galois is not None and len(f.galois) == 3

    def test_non_galois_cubic_has_no_default(self):
        f = make_field([-2, -4, 0, 1])  # x^3 - 4x - 2, disc 148 not a square
        assert f.degree == 3
        assert f.galois is None

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            make_field([-5, 0, 2])

    @pytest.mark.parametrize("coeffs", [
        [-5.0, 0, 1], [-5, 0, 1.5], [Fraction(-9, 2), 0, 1], [-5, False, 1], ["-5", 0, 1]])
    def test_non_integer_coefficient_rejected(self, coeffs):
        with pytest.raises(ValueError, match="min_poly coefficient must be an integer"):
            make_field(coeffs)

    def test_integral_fraction_coefficients_accepted(self):
        assert make_field([Fraction(-5), 0, Fraction(1)]).min_poly == (-5, 0, 1)

    def test_non_integer_galois_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^galois entry must be an integer, not 1\.9$"):
            make_field([-5, 0, 1], galois=[[0, 1], [1.9, 0]])

    @pytest.mark.parametrize("coeffs, exc, message", [
        ([1, 0, 2, 0, 1], NotIrreducible, "repeated factor"),  # (x^2 + 1)^2
        ([4, 0, -4, 0, 1], NotIrreducible, "repeated factor"),  # (x^2 - 2)^2
        ([-2, 0, -1, 0, 1], NotTotallyReal, "only 2 real roots"),  # (x^2 + 1)(x^2 - 2)
        ([2, 0, 0, 1], NotTotallyReal, "only 1 real roots"),  # x^3 + 2
        ([-1, -1, 7, 3, -5, -1, 1], NotIrreducible, "rational factor"),  # two cubics
    ])
    def test_checks_run_in_order(self, coeffs, exc, message):
        with pytest.raises(exc, match=message):
            make_field(coeffs)

    @pytest.mark.parametrize("coeffs, exc, message", [
        # a repeated factor first, even with non-real roots
        ([4, 0, -4, 0, 1], NotIrreducible, "[4, 0, -4, 0, 1] has a repeated factor"),
        ([1, 0, 2, 0, 1], NotIrreducible, "[1, 0, 2, 0, 1] has a repeated factor"),
        # then too few real roots, even with a rational factor: (x - 1)(x^2 + 1)
        ([-1, 1, -1, 1], NotTotallyReal, "only 1 real roots for degree 3"),
        ([2, 0, 0, 1], NotTotallyReal, "only 1 real roots for degree 3"),
        # then a rational factor, here with roots at isolation's split points
        ([0, -3, 1], NotIrreducible, "[0, -3, 1] has a rational factor"),
        ([0, -16, 0, 1], NotIrreducible, "[0, -16, 0, 1] has a rational factor"),
        ([6, -2, -3, 1], NotIrreducible, "[6, -2, -3, 1] has a rational factor"),
    ])
    def test_error_types_and_messages(self, coeffs, exc, message):
        with pytest.raises((NotIrreducible, NotTotallyReal)) as info:
            make_field(coeffs)
        assert (type(info.value), str(info.value)) == (exc, message)

    def test_three_cycle_on_non_galois_cubic_rejected(self):
        # x^3 - 4x + 1 has discriminant 229, not a square: its group is S_3
        with pytest.raises(ValueError, match="229"):
            make_field([1, -4, 0, 1], galois=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        f = make_field([-1, -3, 0, 1], galois=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert f.galois == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class TestArithmetic:
    def test_product_of_conjugates(self, q5):
        a = q5.element([Fraction(3, 2), Fraction(1, 2)])
        b = q5.element([Fraction(3, 2), Fraction(-1, 2)])
        assert a * b == q5.one

    def test_defining_relation(self, q5):
        th = q5.gen
        assert th * th == q5.element([5])

    def test_inverse(self, q5):
        a = q5.element([Fraction(1, 2), Fraction(1, 2)])
        assert a.inverse() == q5.element([Fraction(-1, 2), Fraction(1, 2)])
        assert a * a.inverse() == q5.one

    def test_pow_negative(self, q5, eps0):
        assert eps0 ** (-2) == (eps0 * eps0).inverse()

    def test_division_by_zero(self, q5):
        with pytest.raises(ZeroDivisionError):
            q5.zero.inverse()


ORACLE_FIELDS = [[-1, -3, 0, 1], [1, -4, 0, 1], [1, 0, -4, 0, 1], [1, 3, -3, -4, 1, 1]]


class TestArithmeticAgainstSympy:
    """Products and inverses against sympy's rem and invert modulo min_poly."""

    @staticmethod
    def _coords(expr, x, d):
        coeffs = sympy.Poly(expr, x).all_coeffs()[::-1] if expr != 0 else []
        coeffs += [0] * (d - len(coeffs))
        return tuple(Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs))

    @pytest.mark.parametrize("min_poly", ORACLE_FIELDS)
    def test_product_and_inverse(self, min_poly):
        x = sympy.symbols("x")
        fld = make_field(min_poly)
        d = fld.degree
        f = sum(c * x**i for i, c in enumerate(min_poly))
        rng = random.Random(sum(min_poly) + 100 * d)
        for _ in range(8):
            a, b = ([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
                    for _ in range(2))
            a[-1] = a[-1] or Fraction(1)
            ax, bx = (sum(sympy.Rational(c.numerator, c.denominator) * x**i
                          for i, c in enumerate(v)) for v in (a, b))
            ea, eb = fld.element(a), fld.element(b)
            assert (ea * eb).coeffs == self._coords(sympy.rem(ax * bx, f, x), x, d)
            assert ea.inverse().coeffs == self._coords(sympy.invert(ax, f, x), x, d)


class TestNormTrace:
    def test_norm_of_generator(self, q5):
        assert norm(q5.gen) == -5

    def test_norm_of_rational(self, q5):
        assert norm(q5.element([7])) == 49

    def test_norm_unit(self, q5, eps0):
        assert norm(eps0) == 1

    def test_trace_rational(self, q5):
        assert trace(q5.element([7])) == 14

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, a0, a1, b0, b1):
        f = make_field([-5, 0, 1])
        a = f.element([a0, a1])
        b = f.element([b0, b1])
        assert norm(a * b) == norm(a) * norm(b)
        assert trace(a + b) == trace(a) + trace(b)

    def test_norm_equals_product_of_embeddings(self, q5):
        a = q5.element([Fraction(7, 3), Fraction(-2, 5)])
        n = norm(a)
        for bits in (16, 48):
            iv0 = embed(a, 0, bits)
            iv1 = embed(a, 1, bits)
            prod = iv0 * iv1
            assert prod.lo <= n <= prod.hi


class TestEmbed:
    def test_sqrt5_digits(self, q5):
        iv = embed(q5.gen, 1, 20)
        assert iv.width <= Fraction(1, 2**20)
        assert iv.contains(Fraction(2236067977, 10**9))

    def test_rational_constant(self, q5):
        iv = embed(q5.element([3]), 0, 4)
        assert iv.lo == iv.hi == 3

    def test_negative_root(self, q5):
        iv = embed(q5.gen, 0, 10)
        assert iv.hi < -2 and iv.lo > -3

    def test_monotone_refinement(self, q5):
        a = q5.element([Fraction(1, 3), Fraction(2, 7)])
        prev = embed(a, 1, 8)
        for bits in (16, 32, 64):
            cur = embed(a, 1, bits)
            assert prev.lo <= cur.lo and cur.hi <= prev.hi
            prev = cur


class TestDyadicInterval:
    def test_outward_rounding_contains(self):
        q = Fraction(1, 3)
        iv = DyadicInterval.from_fraction(q, 10)
        assert iv.lo <= q <= iv.hi
        assert iv.width <= Fraction(2, 2**10)

    @given(st.fractions(min_value=-10, max_value=10),
           st.fractions(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_product_contains_exact(self, x, y):
        ix = DyadicInterval.from_fraction(x, 12)
        iy = DyadicInterval.from_fraction(y, 12)
        prod = (ix * iy).round(12)
        assert prod.lo <= x * y <= prod.hi

    def test_radius_nonnegative(self):
        iv = DyadicInterval(Fraction(1, 4), Fraction(1, 2))
        assert iv.radius >= 0
        with pytest.raises(ValueError):
            DyadicInterval(Fraction(1), Fraction(0))

    def test_inverse_straddling_rejected(self):
        iv = DyadicInterval(Fraction(-1), Fraction(1))
        with pytest.raises(ZeroDivisionError):
            iv.inverse(8)


def brute_force_pell(D: int):
    """Smallest unit > 1 of the maximal order: direct search over y."""
    if D % 4 == 1:
        # (x + y sqrt(D))/2 with x = y mod 2, x^2 - D y^2 = +-4;
        # smaller x first so the fundamental solution is found, not a power
        for y in range(1, 20000):
            for target in (-4, 4):
                x2 = D * y * y + target
                if x2 > 0:
                    x = math.isqrt(x2)
                    if x * x == x2 and (x - y) % 2 == 0:
                        return Fraction(x, 2), Fraction(y, 2)
    else:
        for y in range(1, 20000):
            for target in (-1, 1):
                x2 = D * y * y + target
                if x2 > 0:
                    x = math.isqrt(x2)
                    if x * x == x2:
                        return Fraction(x), Fraction(y)
    raise AssertionError(f"no unit found for D={D}")


def squarefree_up_to(n):
    out = []
    for d in range(2, n + 1):
        if all(d % (f * f) != 0 for f in range(2, math.isqrt(d) + 1)):
            out.append(d)
    return out


class TestFundamentalUnit:
    @pytest.mark.parametrize("D,expected", [
        (5, (Fraction(1, 2), Fraction(1, 2))),
        (2, (Fraction(1), Fraction(1))),
        (13, (Fraction(3, 2), Fraction(1, 2))),
    ])
    def test_known_values(self, D, expected):
        u = fundamental_unit_quadratic(D)
        assert u.coeffs == expected

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            fundamental_unit_quadratic(12)

    def test_pell_oracle_small(self):
        for D in squarefree_up_to(60):
            u = fundamental_unit_quadratic(D)
            assert u.coeffs == brute_force_pell(D), f"D={D}"
            assert abs(norm(u)) == 1

    def test_totally_positive_variant(self):
        u5 = fundamental_unit_quadratic(5)
        tp = totally_positive_fundamental(u5)
        assert tp.coeffs == (Fraction(3, 2), Fraction(1, 2))
        u3 = fundamental_unit_quadratic(3)  # norm +1, already totally positive
        assert totally_positive_fundamental(u3) == u3


class TestSymmetrizedNorm:
    def test_zero_exponents(self, eps0):
        assert isinstance(symmetrized_norm(eps0, (0, 0)), Zero)

    def test_norm_of_unit_minus_one(self, eps0):
        r = symmetrized_norm(eps0, (0, 1))
        assert isinstance(r, CertifiedInteger) and r.value == -1

    def test_eps_cubed_conjugate(self, eps0):
        r = symmetrized_norm(eps0, (3, 1))
        assert r.value == -5

    def test_requires_unit(self, q5):
        with pytest.raises(ValueError):
            symmetrized_norm(q5.gen, (1, 0))

    def test_non_integer_exponent_rejected(self, eps0):
        with pytest.raises(ValueError, match=r"^exponent must be an integer, not 4\.9$"):
            symmetrized_norm(eps0, (4.9, 2))
        with pytest.raises(ValueError, match=r"^exponent must be an integer, not 2\.5$"):
            symmetrized_difference_norm(eps0, (4, 2), (1, 2.5), {0})
        assert symmetrized_norm(eps0, (Fraction(3), 1)).value == -5

    def test_rational_unit(self, q5):
        minus_one = q5.element([-1])
        r = symmetrized_norm(minus_one, (1, 0))
        assert r.value == 4  # (-2)^2 over the two group elements
        assert isinstance(symmetrized_norm(minus_one, (1, 1)), Zero)

    def test_cubic_interval_path(self):
        f = make_field([-1, -3, 0, 1])
        eps = f.gen * f.gen  # totally positive unit
        r = symmetrized_norm(eps, (1, 0, 0))
        assert isinstance(r, CertifiedInteger)
        # norm(eps - 1) computed independently: charpoly shift
        expected = norm(eps - f.one)
        assert r.value == int(expected)

    def test_indeterminate_below_first_rung(self):
        f = make_field([-1, -3, 0, 1])
        eps = f.gen * f.gen
        with pytest.raises(Indeterminate):
            symmetrized_norm(eps, (1, 0, 0), precision_cap=32)

    def test_sd_symmetrization_multiple(self):
        # non-Galois cubic: no galois data, S_3 symmetrization
        f = make_field([-2, -4, 0, 1])
        assert f.galois is None
        th = f.gen
        # find a unit: x^3 - 4x - 2 has norm(th) = 2, so use th^3/2 ... skip
        # instead check that a rational unit still certifies
        r = symmetrized_norm(f.element([-1]), (1, 0, 0))
        assert r.value == (-2) ** 6  # |S_3| = 6 factors

    def test_difference_form_sign_equal(self, q5, eps0):
        # exponent data for k = (4, 2): m = (0, 1), k0 = 4
        e_on = (3, 2)
        e_off = (0, -1)
        for mask, pj in [(0, (0, 1)), (1, (3, 1)), (2, (0, 2)), (3, (3, 2))]:
            subset = [t for t in range(2) if (mask >> t) & 1]
            v1 = symmetrized_norm(eps0, pj)
            v2 = symmetrized_difference_norm(eps0, e_on, e_off, subset)
            assert abs(v1.value) == abs(v2.value), mask


    def test_difference_form_powers_once_per_round(self, monkeypatch):
        # cyclic quintic Q(zeta_11)^+ with its Galois group, eps = x^2
        f = make_field([1, 3, -3, -4, 1, 1],
                       galois=[[0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [3, 0, 4, 2, 1],
                               [1, 4, 3, 0, 2], [2, 3, 1, 4, 0]])
        eps = f.gen * f.gen
        e_on, e_off, subset = (3, 1, 1, 1, 1), (0, -1, -1, -1, -1), {0, 1}
        calls = {"power": 0, "embed": 0}
        power, embed_ = DyadicInterval.power, nfield.embed

        def counted_power(self, e, bits):
            calls["power"] += 1
            return power(self, e, bits)

        def counted_embed(*args, **kwargs):
            calls["embed"] += 1
            return embed_(*args, **kwargs)

        monkeypatch.setattr(DyadicInterval, "power", counted_power)
        monkeypatch.setattr(nfield, "embed", counted_embed)
        got = symmetrized_difference_norm(eps, e_on, e_off, subset)
        assert isinstance(got, CertifiedInteger)
        rounds = calls["embed"] // 5  # one embedding per root and round
        distinct = len({e_on[t] if t in subset else e_off[t] for t in range(5)})
        assert rounds >= 1
        assert calls["power"] <= rounds * 5 * distinct


class TestOrbitReduce:
    def test_idempotent(self, q5, eps0):
        xi = q5.element([3, 1])
        red = orbit_reduce(xi, eps0)
        assert orbit_reduce(red, eps0) == red

    def test_orbit_equivalence(self, q5, eps0):
        xi = q5.element([3, 1])
        red = orbit_reduce(xi, eps0)
        sq = eps0 * eps0
        assert orbit_reduce(sq * sq * xi, eps0) == red
        assert orbit_reduce(xi * sq.inverse(), eps0) == red

    def test_explicit_value(self, q5, eps0):
        xi = q5.element([7, 3])  # equals 2 * eps0^2
        red = orbit_reduce(xi, eps0)
        assert red == q5.element([2])
        quot = xi * red.inverse()
        assert quot == eps0 * eps0

    def test_rejects_non_totally_positive(self, q5, eps0):
        with pytest.raises(NotTotallyPositive):
            orbit_reduce(q5.gen, eps0)

    def test_rejects_higher_degree(self):
        f = make_field([-1, -3, 0, 1])
        with pytest.raises(UnsupportedDegree):
            orbit_reduce(f.one, f.one + f.one)


class TestSigns:
    def test_embed_sign(self, q5):
        assert embed_sign(q5.gen, 0) == -1
        assert embed_sign(q5.gen, 1) == 1
        assert embed_sign(q5.zero, 0) == 0

    def test_totally_positive(self, q5, eps0):
        assert is_totally_positive(eps0)
        assert not is_totally_positive(q5.gen)


class TestFloatCrossCheck:
    """Certified integers against a plain floating-point evaluation."""

    def _float_product(self, fld, eps, e):
        import itertools
        roots = []
        for i in range(fld.degree):
            iv = embed(fld.gen, i, 60)
            roots.append(float(iv.center))
        group = fld.galois or tuple(itertools.permutations(range(fld.degree)))
        coeffs = [float(c) for c in eps.coeffs]

        def emb_val(i):
            x = roots[i]
            return sum(c * x**k for k, c in enumerate(coeffs))

        total = 1.0
        for g in group:
            f = 1.0
            for t, exp in enumerate(e):
                f *= emb_val(g[t]) ** exp
            total *= f - 1.0
        return total

    def test_quadratic_agreement(self, q5, eps0):
        import random
        rng = random.Random(17)
        for _ in range(40):
            e = (rng.randint(-4, 4), rng.randint(-4, 4))
            got = symmetrized_norm(eps0, e)
            approx = self._float_product(q5, eps0, e)
            if isinstance(got, Zero):
                assert abs(approx) < 1e-6
            else:
                assert abs(got.value - approx) < 1e-6 * max(1, abs(approx))

    def test_cubic_agreement(self):
        import random
        f = make_field([-1, -3, 0, 1])
        eps = f.gen * f.gen
        rng = random.Random(23)
        for _ in range(25):
            e = tuple(rng.randint(-3, 3) for _ in range(3))
            got = symmetrized_norm(eps, e)
            approx = self._float_product(f, eps, e)
            if isinstance(got, Zero):
                assert abs(approx) < 1e-6
            else:
                assert abs(got.value - approx) < 1e-5 * max(1, abs(approx))

    def test_non_galois_cubic_full_symmetrization(self):
        # S_3-symmetrized product: an integer multiple of the true norm,
        # cross-checked against the float evaluation
        f = make_field([-2, -4, 0, 1])
        assert f.galois is None
        eps = f.element([-5, -3, 0])
        from hmfcert.nfield import norm as _norm
        assert abs(_norm(eps)) == 1
        got = symmetrized_norm(eps, (2, 1, 0))
        assert isinstance(got, CertifiedInteger)
        approx = self._float_product(f, eps, (2, 1, 0))
        assert abs(got.value - approx) < 1e-4 * max(1, abs(approx))


class TestEmbedCacheOrder:
    def test_low_precision_after_high_still_contains(self, q5):
        f = make_field([-7, 0, 1])  # fresh field, fresh cache
        a = f.element([Fraction(2, 3), Fraction(5, 7)])
        hi = embed(a, 1, 64)
        lo = embed(a, 1, 8)
        assert lo.lo <= hi.lo and hi.hi <= lo.hi
        assert lo.width <= Fraction(1, 2**8)


# ---------------------------------------------------------------------------
# independent oracles for the integer-mantissa kernels

CYCLIC_QUINTIC = [1, 3, -3, -4, 1, 1]
CYCLIC_QUINTIC_GALOIS = [[0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [3, 0, 4, 2, 1],
                         [1, 4, 3, 0, 2], [2, 3, 1, 4, 0]]


def _down(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.floor(x * (1 << bits)), 1 << bits)


def _up(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << bits)), 1 << bits)


class FracInterval:
    """Reference interval arithmetic on Fraction endpoints."""

    def __init__(self, lo, hi):
        self.lo, self.hi = Fraction(lo), Fraction(hi)

    @classmethod
    def from_fraction(cls, q, bits):
        q = Fraction(q)
        if q.denominator & (q.denominator - 1) == 0:
            return cls(q, q)
        return cls(_down(q, bits), _up(q, bits))

    def __add__(self, other):
        return FracInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return FracInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        prods = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return FracInterval(min(prods), max(prods))

    def round(self, bits):
        return FracInterval(_down(self.lo, bits), _up(self.hi, bits))

    def inverse(self, bits):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError
        return FracInterval(_down(1 / self.hi, bits), _up(1 / self.lo, bits))

    def power(self, e, bits):
        """Square-and-multiply from the leading bit of |e|, rounded after each product."""
        if e == 0:
            return FracInterval(1, 1)
        base = self if e > 0 else self.inverse(bits)
        out = base
        for bit in bin(abs(e))[3:]:
            out = (out * out).round(bits)
            if bit == "1":
                out = (out * base).round(bits)
        return out

    def sqrt(self, bits):
        scale = 1 << (2 * bits)
        hi_c = math.ceil(self.hi * scale)
        hi_n = math.isqrt(hi_c)
        if hi_n * hi_n < hi_c:
            hi_n += 1
        return FracInterval(Fraction(math.isqrt(math.floor(self.lo * scale)), 1 << bits),
                            Fraction(hi_n, 1 << bits))


def _ref_root(fld, cache, idx, width):
    """Bisection of the isolating interval on Fractions, continued across calls."""
    lo, hi = cache.get(idx, fld.embeddings[idx])

    def p(x):
        return sum(c * x**i for i, c in enumerate(fld.min_poly))

    sign_lo = p(lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (p(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    cache[idx] = (lo, hi)
    return lo, hi


def _ref_embed(fld, cache, a, idx, bits):
    """Interval Horner on Fractions over the reference root interval."""
    if a.is_rational():
        return FracInterval.from_fraction(a.coeffs[0], bits + 1)
    slack = 4
    while True:
        lo, hi = _ref_root(fld, cache, idx, Fraction(1, 1 << (bits + slack)))
        acc = FracInterval(0, 0)
        for c in reversed(a.coeffs):
            acc = acc * FracInterval(lo, hi) + FracInterval(c, c)
        out = acc.round(bits + slack)
        if out.hi - out.lo <= Fraction(1, 1 << bits):
            return out
        slack *= 2


def _same(got, ref):
    return (got.lo, got.hi) == (ref.lo, ref.hi)


dyadics = st.builds(lambda m, e: Fraction(m, 1 << e),
                    st.integers(-(2**90), 2**90), st.integers(0, 100))
dyadic_pairs = st.tuples(dyadics, dyadics).map(sorted)


class TestIntegerIntervalsAgainstFractions:
    @given(dyadic_pairs, dyadic_pairs, st.integers(0, 120))
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_and_rounding(self, x, y, bits):
        ix, iy = DyadicInterval(*x), DyadicInterval(*y)
        rx, ry = FracInterval(*x), FracInterval(*y)
        assert _same(ix, rx)
        assert _same(ix + iy, rx + ry)
        assert _same(ix - iy, rx - ry)
        assert _same(-ix, FracInterval(-rx.hi, -rx.lo))
        assert _same(ix * iy, rx * ry)
        assert _same((ix * iy).round(bits), (rx * ry).round(bits))
        assert ix.width == rx.hi - rx.lo
        assert ix.center == (rx.lo + rx.hi) / 2
        assert ix.straddles_zero() == (rx.lo <= 0 <= rx.hi)

    @given(dyadic_pairs, st.integers(0, 120), st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_inverse_and_power(self, x, bits, e):
        ix, rx = DyadicInterval(*x), FracInterval(*x)
        if rx.lo <= 0 <= rx.hi:
            with pytest.raises(ZeroDivisionError):
                ix.inverse(bits)
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    ix.power(e, bits)
                return
        else:
            assert _same(ix.inverse(bits), rx.inverse(bits))
        assert _same(ix.power(e, bits), rx.power(e, bits))

    @given(dyadic_pairs, st.integers(0, 120), st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_power_contains_exact_powers(self, x, bits, e):
        ix = DyadicInterval(*x)
        if e < 0 and ix.straddles_zero():
            return
        got = ix.power(e, bits)
        for v in (ix.lo, ix.center, ix.hi):
            assert got.contains(v ** e)

    @given(st.fractions(), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_from_fraction(self, q, bits):
        assert _same(DyadicInterval.from_fraction(q, bits), FracInterval.from_fraction(q, bits))

    @given(dyadic_pairs, st.integers(0, 120))
    @settings(max_examples=200, deadline=None)
    def test_sqrt(self, x, bits):
        x = [abs(v) for v in x]
        x.sort()
        ix = DyadicInterval(*x)
        got = ix.sqrt(bits)
        assert _same(got, FracInterval(*x).sqrt(bits))
        assert got.lo ** 2 <= ix.lo and ix.hi <= got.hi ** 2

    def test_sqrt_upper_end_is_sound(self):
        got = DyadicInterval(Fraction(19, 4), Fraction(19, 4)).sqrt(0)
        assert got.hi ** 2 >= Fraction(19, 4)
        assert got.lo ** 2 <= Fraction(19, 4)

    @pytest.mark.parametrize("lo,hi,want", [
        (Fraction(23, 8), Fraction(25, 8), 3),
        (Fraction(-25, 8), Fraction(-23, 8), -3),
        (Fraction(5, 2), Fraction(51, 16), None),   # width >= 1/2
        (Fraction(17, 8), Fraction(19, 8), None),   # no integer inside
        (Fraction(-1, 4), Fraction(1, 4), None),    # straddles 0, width >= 1/2
        (Fraction(7), Fraction(7), 7),
        (Fraction(-1, 8), Fraction(1, 8), 0),       # 0 is pinned like any integer
    ])
    def test_pinned_integer(self, lo, hi, want):
        assert DyadicInterval(lo, hi).pinned_integer() == want

    def test_non_dyadic_endpoint_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(Fraction(1, 3), Fraction(1))
        with pytest.raises(ValueError):
            DyadicInterval.from_fraction(Fraction(1, 3))

    @pytest.mark.parametrize("poly,galois", [([1, -4, 0, 1], None),
                                             (CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS)])
    def test_embed_against_fraction_horner(self, poly, galois):
        fld, ref_fld = make_field(poly, galois), make_field(poly, galois)
        ref_cache = {}
        rng = random.Random(31)
        d = fld.degree
        for _ in range(12):
            a = fld.element([Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 12]))
                             for _ in range(d)])
            for bits in rng.sample([8, 16, 33, 64, 100, 200, 333, 512], 4):
                idx = rng.randrange(d)
                got = embed(a, idx, bits)
                assert _same(got, _ref_embed(ref_fld, ref_cache, a, idx, bits))
                assert got.width <= Fraction(1, 1 << bits)

    @pytest.mark.parametrize("poly", [[-5, 0, 1], [1, -4, 0, 1], [1, 0, -4, 0, 1],
                                      CYCLIC_QUINTIC])
    def test_norm_and_trace_against_sympy_det(self, poly):
        fld = make_field(poly)
        rng = random.Random(37)
        for _ in range(8):
            a = fld.element([Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7]))
                             for _ in range(fld.degree)])
            rows, cur = [], a
            for _ in range(fld.degree):
                rows.append([sympy.Rational(c.numerator, c.denominator) for c in cur.coeffs])
                cur = cur * fld.gen
            m = sympy.Matrix(rows)
            assert norm(a) == Fraction(str(m.det()))
            assert trace(a) == Fraction(str(m.trace()))


class TestPinnedCertificates:
    """Certified values and widths of the Fraction-endpoint implementation."""

    def test_cyclic_quintic(self):
        fld = make_field(CYCLIC_QUINTIC, galois=CYCLIC_QUINTIC_GALOIS)
        eps = fld.gen * fld.gen
        assert symmetrized_norm(eps, (3, 1, 0, -1, 2)) == CertifiedInteger(
            -20339, Fraction(1054707, 2**64))
        assert symmetrized_difference_norm(
            eps, (3, 1, 1, 1, 1), (0, -1, -1, -1, -1), {0, 2}) == CertifiedInteger(
            89, Fraction(45, 2**57))

    def test_non_galois_cubic(self):
        fld = make_field([1, -4, 0, 1])
        eps = fld.gen * fld.gen
        assert symmetrized_norm(eps, (5, 3, 1)) == CertifiedInteger(
            -3693541, Fraction(28351304525, 2**63))
        assert symmetrized_difference_norm(eps, (5, 3, 1), (0, -1, -3), {1}) == CertifiedInteger(
            12845056, Fraction(440416007, 2**61))



class TestCertifyDriver:
    """_certify doubles the bits from 64 to the cap and accepts the first pin."""

    NOT_PINNED = {
        "zero_division": None,
        "straddles_zero": (Fraction(-1, 4), Fraction(1, 4)),  # width 1/2
        "no_integer": (Fraction(5, 4), Fraction(3, 2)),
        "too_wide": (Fraction(2), Fraction(5, 2)),
    }

    @pytest.mark.parametrize("failure", sorted(NOT_PINNED))
    @pytest.mark.parametrize("cap, rounds", [(64, 1), (1024, 5), (1000, 4), (32, 0)])
    def test_escalates_to_cap(self, failure, cap, rounds):
        calls = []

        def evaluate(bits):
            calls.append(bits)
            if failure == "zero_division":
                raise ZeroDivisionError("interval contains zero")
            return DyadicInterval(*self.NOT_PINNED[failure])

        with pytest.raises(Indeterminate) as exc:
            _certify(evaluate, cap)
        assert exc.value.max_bits == cap
        assert calls == [64 << i for i in range(rounds)]

    def test_accepts_first_pinned_interval(self):
        calls = []

        def evaluate(bits):
            calls.append(bits)
            if bits == 64:
                raise ZeroDivisionError("interval contains zero")
            if bits == 128:
                return DyadicInterval(Fraction(-1, 4), Fraction(1, 4))
            return DyadicInterval(Fraction(-7) - Fraction(1, 2**bits),
                                  Fraction(-7) + Fraction(1, 2**bits))

        assert _certify(evaluate, 2**16) == CertifiedInteger(-7, Fraction(2, 2**256))
        assert calls == [64, 128, 256]

    def test_narrow_interval_around_zero_is_zero(self):
        calls = []

        def evaluate(bits):
            calls.append(bits)
            return DyadicInterval(Fraction(-1, 8), Fraction(1, 8))

        assert _certify(evaluate, 2**16) is ZERO
        assert calls == [64]


class TestSingleProductIsDifferenceForm:
    """symmetrized_norm(eps, e) is the difference form with J = everything."""

    @pytest.mark.parametrize("poly, galois", [
        ([-1, -3, 0, 1], None),
        ([1, -4, 0, 1], None),
        (CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS),
    ])
    def test_same_value_and_width(self, poly, galois):
        fld = make_field(poly, galois)
        d = fld.degree
        rng = random.Random(61)
        checked = 0
        while checked < 6:
            e = tuple(rng.randint(-2, 3) for _ in range(d))
            if len(set(e)) == 1:
                continue
            for eps in (fld.gen, fld.gen * fld.gen):
                single = symmetrized_norm(eps, e)
                assert isinstance(single, CertifiedInteger)
                assert single == symmetrized_difference_norm(eps, e, (0,) * d, range(d))
            checked += 1


KLEIN_QUARTIC = [1, 0, -4, 0, 1]
KLEIN_GALOIS = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]]


def full_group_product(eps, e, subset, fld, group, bits):
    """One interval factor per element of group, every one multiplied out.

    The evaluation before equal factors were collapsed to one per coset.
    """
    embs = [embed(eps, i, bits) for i in range(fld.degree)]
    powers = {(i, exp): embs[i].power(exp, bits)
              for i in range(fld.degree) for exp in set(e)}
    one = DyadicInterval(1, 1)
    total = one
    for g in group:
        a = b = one
        for t, exp in enumerate(e):
            if t in subset:
                a = (a * powers[(g[t], exp)]).round(bits)
            else:
                b = (b * powers[(g[t], exp)]).round(bits)
        total = (total * (a - b)).round(bits)
    return total


def _labelling(g, e, subset):
    labels = [None] * len(e)
    for t, exp in enumerate(e):
        labels[g[t]] = (t in subset, exp)
    return tuple(labels)


def _certified_value(run):
    try:
        result = run()
    except Indeterminate:
        return Indeterminate
    return result if result is ZERO else result.value


class TestDistinctFactors:
    """The product over G is the product over one element per labelling coset, to the |H|."""

    @pytest.mark.parametrize("poly, galois, seed", [
        ([1, -4, 0, 1], None, 3),
        (KLEIN_QUARTIC, None, 4),
        (CYCLIC_QUINTIC, None, 5),
        (CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS, 6),
    ])
    def test_values_match_full_group_oracle(self, poly, galois, seed):
        fld = make_field(poly, galois)
        d = fld.degree
        group = nfield._symmetrization_group(fld)
        rng = random.Random(seed)
        cap = 1024
        collapsed = 0
        for _ in range(8):
            eps = rng.choice((fld.gen, fld.gen * fld.gen))
            e_on = tuple(rng.choice((-1, 0, 1, 2)) for _ in range(d))
            e_off = tuple(rng.choice((-1, 0, 1)) for _ in range(d))
            subset = frozenset(t for t in range(d) if rng.random() < 0.5)
            exps = [e_on[t] if t in subset else e_off[t] for t in range(d)]
            want = _certified_value(lambda: _certify(
                lambda bits: full_group_product(eps, exps, subset, fld, group, bits), cap))
            got = _certified_value(lambda: symmetrized_difference_norm(
                eps, e_on, e_off, subset, precision_cap=cap))
            assert got == want, (e_on, e_off, subset)
            collapsed += nfield._label_cosets(exps, subset, group)[1] > 1
            if len(set(e_on)) == 1:
                continue
            want = _certified_value(lambda: _certify(
                lambda bits: full_group_product(eps, e_on, range(d), fld, group, bits), cap))
            got = _certified_value(lambda: symmetrized_norm(eps, e_on, precision_cap=cap))
            assert got == want, e_on
            collapsed += nfield._label_cosets(e_on, range(d), group)[1] > 1
        # without Galois data the seeded exponents repeat, so some products collapse
        assert (collapsed > 0) == (galois is None)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["S3", "S4", "S5", "C3", "C5", "V4"]), st.data())
    def test_cosets_of_the_label_stabilizer(self, name, data):
        d = int(name[1])
        group = {
            "C3": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            "C5": tuple(map(tuple, CYCLIC_QUINTIC_GALOIS)),
            "V4": tuple(map(tuple, KLEIN_GALOIS)),
        }.get(name) or tuple(itertools.permutations(range(d)))
        e = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        subset = frozenset(data.draw(st.sets(st.integers(0, d - 1))))
        reps, h = nfield._label_cosets(e, subset, group)
        assert len(reps) * h == len(group)
        labels = [_labelling(g, e, subset) for g in reps]
        assert len(set(labels)) == len(reps)
        # each labelling of the group is one of the representatives', h times,
        # and each representative is the first element with its labelling
        every = [_labelling(g, e, subset) for g in group]
        assert all(every.count(lab) == h for lab in labels)
        assert [every.index(lab) for lab in labels] == sorted(group.index(g) for g in reps)
        distinct = len(set(zip([t in subset for t in range(d)], e))) == d
        cyclic_prime = name in ("C3", "C5") and len(set(every[0])) > 1
        if distinct or cyclic_prime:
            assert reps == group
            assert h == 1

    def test_klein_data_can_collapse(self):
        # a regular group still fixes the labelling (a, b, b, a) by (03)(12)
        group = tuple(map(tuple, KLEIN_GALOIS))
        reps, h = nfield._label_cosets((2, 1, 1, 2), range(4), group)
        assert h == 2
        assert reps == ((0, 1, 2, 3), (1, 0, 3, 2))
        fld = make_field(KLEIN_QUARTIC, KLEIN_GALOIS)
        eps = fld.gen * fld.gen
        want = _certify(lambda bits: full_group_product(
            eps, (2, 1, 1, 2), range(4), fld, group, bits), 1024)
        assert want.value == 144
        assert symmetrized_norm(eps, (2, 1, 1, 2), precision_cap=1024).value == 144

    def test_s5_multiplications_per_level(self, monkeypatch):
        # S_5 quintic without Galois data: the labels (off, 0), (on, 2),
        # (on, 2), (off, -1), (off, -1) are fixed by 4 permutations, so 30
        # distinct factors of 6 products each, 5 squares and 3 for the 4th
        # power make 188 products; all 120 factors make 725
        fld = make_field(CYCLIC_QUINTIC)
        eps = fld.gen * fld.gen
        calls = {"mul": 0, "embed": 0}
        mul, embed_ = DyadicInterval.__mul__, nfield.embed

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counted_embed(*args, **kwargs):
            calls["embed"] += 1
            return embed_(*args, **kwargs)

        monkeypatch.setattr(DyadicInterval, "__mul__", counted_mul)
        monkeypatch.setattr(nfield, "embed", counted_embed)
        got = symmetrized_difference_norm(eps, (3, 2, 2, 2, 2), (0, -1, -1, -1, -1), {1, 2})
        assert isinstance(got, CertifiedInteger)
        rounds = calls["embed"] // 5
        assert rounds >= 1
        assert calls["mul"] <= 200 * rounds


def object_loop_product(embs, e, subset, reps, stabilizer_order, bits):
    """The kernel's interval on DyadicInterval objects.

    The evaluation before _interval_product became one loop over integer
    mantissas: every power of every interval first, then each partial
    product, difference and running total as an object, rounded to bits.
    """
    powers = {(i, exp): x.power(exp, bits) for i, x in enumerate(embs) for exp in set(e)}
    one = DyadicInterval(1, 1)
    total = one
    for g in reps:
        a = b = one
        for t, exp in enumerate(e):
            if t in subset:
                a = (a * powers[(g[t], exp)]).round(bits)
            else:
                b = (b * powers[(g[t], exp)]).round(bits)
        total = (total * (a - b)).round(bits)
    if stabilizer_order > 1:
        total = total.power(stabilizer_order, bits)
    return total


def _wreath(group):
    """C_2 wr G on positions 2t + u, as criteria._wreath_product_value builds it."""
    d = len(group[0])
    return tuple(tuple(2 * g[t] + (u ^ signs[t]) for t in range(d) for u in (0, 1))
                 for signs in itertools.product((0, 1), repeat=d) for g in group)


ORACLE_GROUPS = {
    "S2": ((0, 1), (1, 0)),
    "S3": tuple(itertools.permutations(range(3))),
    "C3": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    "S4": tuple(itertools.permutations(range(4))),
    "V4": tuple(map(tuple, KLEIN_GALOIS)),
    "C5": tuple(map(tuple, CYCLIC_QUINTIC_GALOIS)),
    "C2wrS2": _wreath(tuple(itertools.permutations(range(2)))),
    "C2wrC3": _wreath(((0, 1, 2), (1, 2, 0), (2, 0, 1))),
}


def _mantissas_or_error(run):
    try:
        iv = run()
    except ZeroDivisionError:
        return ZeroDivisionError
    return iv.lo_m, iv.hi_m, iv.exp


def _random_interval(rng, bits):
    """Mantissas over 2^exp, exp up to a few bits past the level, of any sign."""
    exp = rng.randint(0, bits + 6)
    kind = rng.choice(("positive", "negative", "straddle", "any"))
    width = rng.randint(0, max(1, 1 << max(exp - 3, 0)))
    scale = 1 << (exp + 2)
    if kind == "positive":
        lo = rng.randint(1, scale)
    elif kind == "negative":
        lo = -rng.randint(1, scale) - width
    elif kind == "straddle":
        lo = -rng.randint(0, width)
    else:
        lo = rng.randint(-scale, scale)
    return nfield._interval(lo, lo + width, exp)


def _oracle_case(rng, name):
    group = ORACLE_GROUPS[name]
    n = len(group[0])
    bits = rng.choice((4, 8, 13, 32, 64, 90))
    embs = [_random_interval(rng, bits) for _ in range(n)]
    e = [rng.randint(-2, 3) for _ in range(n)]
    subset = frozenset(t for t in range(n) if rng.random() < 0.5)
    if rng.random() < 0.75:
        reps, h = nfield._label_cosets(e, subset, group)
    else:
        reps, h = tuple(rng.choices(group, k=rng.randint(0, 5))), rng.randint(1, 3)
    return embs, e, subset, reps, h, bits


class TestFlatIntervalLoop:
    """_interval_product gives the object loop's interval, mantissa for mantissa."""

    @staticmethod
    def _compare(embs, e, subset, reps, h, bits):
        want = _mantissas_or_error(
            lambda: object_loop_product(embs, e, subset, reps, h, bits))
        got = _mantissas_or_error(lambda: nfield._interval_product(
            nfield._PowerTable(embs, bits), e, subset, reps, h))
        assert got == want
        return want

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(ORACLE_GROUPS)), st.integers(0, 2**32))
    def test_random_inputs(self, name, seed):
        self._compare(*_oracle_case(random.Random(seed), name))

    def test_seeded_inputs_cover_every_shape(self):
        rng = random.Random(11)
        seen = dict.fromkeys(("straddle", "negative_exponent", "zero_exponent",
                              "stabilizer", "wreath", "zero_division", "coarse_input"), 0)
        for i in range(600):
            name = sorted(ORACLE_GROUPS)[i % len(ORACLE_GROUPS)]
            embs, e, subset, reps, h, bits = _oracle_case(rng, name)
            want = self._compare(embs, e, subset, reps, h, bits)
            seen["straddle"] += any(x.straddles_zero() for x in embs)
            seen["negative_exponent"] += min(e) < 0
            seen["zero_exponent"] += 0 in e
            seen["stabilizer"] += h > 1
            seen["wreath"] += name.startswith("C2wr")
            seen["zero_division"] += want is ZeroDivisionError
            seen["coarse_input"] += any(x.exp > bits for x in embs)
        assert min(seen.values()) >= 20, seen

    def test_field_embeddings(self):
        fld = make_field(CYCLIC_QUINTIC)
        group = nfield._symmetrization_group(fld)
        eps = fld.gen * fld.gen
        for bits in (64, 128, 300):
            embs = [embed(eps, i, bits) for i in range(5)]
            for e, subset in [((3, 2, 2, 2, 2), range(5)), ((0, -1, 2, 2, -1), {2, 3})]:
                reps, h = nfield._label_cosets(e, subset, group)
                assert h > 1
                self._compare(embs, e, subset, reps, h, bits)


CYCLIC_CUBIC_GALOIS = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def _value_or_zero(certified):
    return certified if certified is ZERO else certified.value


class TestExactFormulaOracles:
    """The kernel against the closed forms of the exact shortcuts it replaced."""

    FIELDS = [([-1, -3, 0, 1], CYCLIC_CUBIC_GALOIS), ([1, -4, 0, 1], None),
              (KLEIN_QUARTIC, None), (KLEIN_QUARTIC, KLEIN_GALOIS),
              (CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS)]

    @pytest.mark.parametrize("poly, galois", FIELDS)
    def test_constant_exponent(self, poly, galois):
        # each factor is norm(eps)^c - 1, so the product is (N(eps)^c - 1)^|G|
        fld = make_field(poly, galois)
        order = len(nfield._symmetrization_group(fld))
        for eps in (fld.gen, fld.gen * fld.gen, -fld.gen):
            for c in range(-3, 4):
                base = norm(eps) ** c - 1
                want = ZERO if base == 0 else base ** order
                assert _value_or_zero(symmetrized_norm(eps, (c,) * fld.degree)) == want

    @pytest.mark.parametrize("poly, galois", [([0, 1], None), ([-5, 0, 1], None)] + FIELDS)
    def test_rational_unit(self, poly, galois):
        # eps = r = +-1: each factor is r^(sum over J) - r^(sum off J)
        fld = make_field(poly, galois)
        d = fld.degree
        order = len(nfield._symmetrization_group(fld))
        rng = random.Random(d)
        for r in (Fraction(1), Fraction(-1)):
            eps = fld.element([r])
            for _ in range(6):
                e_on = tuple(rng.randint(-2, 2) for _ in range(d))
                e_off = tuple(rng.randint(-2, 2) for _ in range(d))
                subset = {t for t in range(d) if rng.random() < 0.5}
                base = (r ** sum(e_on[t] for t in subset)
                        - r ** sum(e_off[t] for t in range(d) if t not in subset))
                want = ZERO if base == 0 else base ** order
                got = symmetrized_difference_norm(eps, e_on, e_off, subset)
                assert _value_or_zero(got) == want, (r, e_on, e_off, subset)
                base = r ** sum(e_on) - 1
                want = ZERO if base == 0 else base ** order
                assert _value_or_zero(symmetrized_norm(eps, e_on)) == want, (r, e_on)

    def test_quadratic_exact_norm(self):
        # over Q(sqrt D) the product is norm(a - b) in the field; with
        # N(eps) = +-1, a = b when the exponents cancel, so zeros are drawn too
        rng = random.Random(24)
        units = {}
        for D in (2, 3, 5, 6, 7, 13, 17):
            u = fundamental_unit_quadratic(D)
            units[D] = (u, totally_positive_fundamental(u), u.inverse())
        subsets = ((), (0,), (1,), (0, 1))
        cases = zeros = 0
        for i in range(224):
            D = sorted(units)[i % len(units)]
            eps = rng.choice(units[D])
            subset = subsets[i // len(units) % 4]
            shape = rng.random()
            if i >= 217:
                e = (2001, 1)
            elif shape < 0.2:
                k = rng.randint(-30, 30)
                e = (k, k if len(subset) != 1 else -k)
            elif shape < 0.6:
                e = (rng.randint(-30, 30), rng.randint(-30, 30))
            else:
                e = (rng.randint(-30, 300), rng.randint(-30, 300))
            want = nfield_oracles.quadratic_product(eps, e, subset)
            want = ZERO if want == 0 else want
            got = symmetrized_difference_norm(eps, e, e, subset)
            assert _value_or_zero(got) == want, (D, eps, e, subset)
            if subset == (0, 1):
                assert _value_or_zero(symmetrized_norm(eps, e)) == want, (D, eps, e)
            cases += 1
            zeros += want is ZERO
        assert cases >= 200 and zeros >= 20, (cases, zeros)


# (min_poly, Galois data, unit coordinates): units from a subfield, and the
# full symmetric group, make exact zeros common
ZERO_CASES = [
    (KLEIN_QUARTIC, None, (0, 0, 1)),
    (KLEIN_QUARTIC, None, (0, 1)),
    (KLEIN_QUARTIC, KLEIN_GALOIS, (0, 0, 1)),
    (KLEIN_QUARTIC, KLEIN_GALOIS, (1, -3, 0, 1)),  # 1 + sqrt 2
    ([-1, -3, 0, 1], CYCLIC_CUBIC_GALOIS, (0, 0, 1)),
    ([1, -4, 0, 1], None, (0, 1)),
    (CYCLIC_QUINTIC, None, (0, 0, 1)),
]
_ZERO_CASE_FIELDS = {}


def _kernel_zero_checked(case, e, subset):
    """Whether the kernel gives ZERO; if so, assert that the multiplied-out
    product over the whole group, at 4x the bits the kernel stopped at,
    pins no integer other than 0."""
    poly, galois, coeffs = case
    key = repr((poly, galois))
    if key not in _ZERO_CASE_FIELDS:
        _ZERO_CASE_FIELDS[key] = make_field(poly, galois)
    fld = _ZERO_CASE_FIELDS[key]
    eps = fld.element(coeffs)
    group = nfield._symmetrization_group(fld)
    levels = []

    def tables(bits):
        levels.append(bits)
        return eps._unit_memo.table(bits)

    if nfield._certified_product(tables, e, subset, group, 2**12) is not ZERO:
        return False
    bits = 4 * levels[-1]
    embs = [embed(eps, i, bits) for i in range(fld.degree)]
    pinned = object_loop_product(embs, e, subset, group, 1, bits).pinned_integer()
    assert pinned in (None, 0), (case, e, subset, pinned)
    return True


class TestProvenZeros:
    """The kernel never returns ZERO where the multiplied-out product pins a non-zero integer."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(ZERO_CASES), st.data())
    def test_zero_is_never_a_nonzero_integer(self, case, data):
        d = len(case[0]) - 1
        e = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        subset = frozenset(data.draw(st.sets(st.integers(0, d - 1))))
        _kernel_zero_checked(case, e, subset)

    def test_seeded_cases_reach_zeros(self):
        rng = random.Random(41)
        zeros = 0
        for i in range(210):
            case = ZERO_CASES[i % len(ZERO_CASES)]
            d = len(case[0]) - 1
            e = [rng.randint(-1, 1) for _ in range(d)]
            subset = frozenset(t for t in range(d) if rng.random() < 0.5)
            zeros += _kernel_zero_checked(case, e, subset)
        assert zeros >= 20, zeros


class TestUnitTables:
    """One norm and one table of embeddings and powers per unit and level."""

    @staticmethod
    def _triple(iv):
        return iv.lo_m, iv.hi_m, iv.exp

    def test_table_after_deeper_refinement_is_a_fresh_embed(self):
        fld = make_field(CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS)
        eps = fld.gen * fld.gen
        unit = eps._unit_memo
        before = unit.table(64)
        assert unit.table(64) is before
        for i in range(5):
            fld._refined_root(i, 512)
        after = unit.table(64)
        fresh = [embed(eps, i, 64) for i in range(5)]
        assert [self._triple(x) for x in after.xs] == [self._triple(x) for x in fresh]
        assert [self._triple(x) for x in before.xs] != [self._triple(x) for x in fresh]
        for e in (-2, -1, 0, 1, 2, 5):
            assert after.row(e) == tuple(self._triple(x.power(e, 64)) for x in fresh)

    def test_stale_level_is_replaced(self):
        fld = make_field(KLEIN_QUARTIC, KLEIN_GALOIS)
        eps = fld.gen * fld.gen
        assert symmetrized_norm(eps, (2, 1, 1, 2)).value == 144
        unit = eps._unit_memo
        first = unit._levels[64][1]
        # tables at deeper levels refine the roots past 64 bits
        for bits in (128, 256, 512):
            unit.table(bits)
        assert sorted(unit._levels) == [64, 128, 256, 512]
        assert symmetrized_norm(eps, (2, 1, 1, 2)).value == 144
        assert sorted(unit._levels) == [64, 128, 256, 512]
        assert unit._levels[64][1] is not first
        assert unit._levels[64][0] == [fld._refined_root(i, 68) for i in range(4)]

    def test_one_memo_per_value(self):
        fld = make_field(CYCLIC_QUINTIC, CYCLIC_QUINTIC_GALOIS)
        a, b = fld.gen * fld.gen, fld.gen * fld.gen
        assert a is not b and a._unit_memo is b._unit_memo
        assert list(fld._unit_cache) == [a.coeffs]
        half = fld.element([Fraction(1, 2), 1])
        for _ in range(2):
            with pytest.raises(ValueError, match="requires a unit"):
                symmetrized_norm(half, (1, 0, 0, 0, 0))
        assert half._unit_memo.norm == norm(half)


def _sympy_verdict(coeffs):
    """make_field's verdict in its order: repeated factor, real roots, factor."""
    x = sympy.symbols("x")
    poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)
    if not poly.is_sqf:
        return NotIrreducible
    if poly.count_roots() < poly.degree():
        return NotTotallyReal
    if not poly.is_irreducible:
        return NotIrreducible
    return None


def _make_field_verdict(coeffs):
    try:
        make_field(coeffs)
    except (NotIrreducible, NotTotallyReal) as exc:
        return type(exc)
    return None


def _poly_product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _shift(p, c):
    """p(x + c), by Horner."""
    out = [p[-1]]
    for a in reversed(p[:-1]):
        out = _poly_product(out, [c, 1])
        out[0] += a
    return out


class TestIrreducibilityAgainstSympy:
    def test_degrees_2_to_8(self):
        rng = random.Random(16)
        cubics = [[-1, -3, 0, 1], [1, -4, 0, 1], [1, -2, -1, 1], [-2, -4, 0, 1]]
        quartics = [[1, 0, -4, 0, 1], [1, -1, -3, 1, 1], [2, 0, -4, 0, 1]]
        totally_real = cubics + quartics + [
            [1, 3, -3, -4, 1, 1], [-1, 3, 6, -4, -5, 1, 1],
            [1, -4, -10, 10, 15, -6, -7, 1, 1]]  # 2cos(2pi/17)
        polys = [_shift(f, rng.randint(-2, 2)) for f in totally_real]
        for _ in range(40):
            d = rng.randint(2, 8)
            polys.append([rng.randint(-5, 5) for _ in range(d)] + [1])
        for _ in range(40):
            # degree 6-8 with no factor of degree <= 2
            f, g = rng.choice(cubics + quartics), rng.choice(cubics + quartics)
            polys.append(_poly_product(_shift(f, rng.randint(-2, 2)), _shift(g, rng.randint(-2, 2))))
        for _ in range(30):
            roots = rng.sample(range(-7, 8), rng.randint(6, 8))
            p = _poly_product(*([-r, 1] for r in roots))
            p[0] += rng.choice([-3, -2, -1, 1, 2, 3])
            polys.append(p)
        for _ in range(20):
            f = rng.choice(totally_real[:7] + [[-rng.randint(-3, 3), 1], [1, 0, 1]])
            polys.append(_poly_product(f, f, *rng.sample([[-1, 1], [1, 0, 1], [-3, 0, 1]], 1)))
        seen = {NotIrreducible: 0, NotTotallyReal: 0, None: 0}
        for p in polys:
            want = _sympy_verdict(p)
            assert _make_field_verdict(p) is want, p
            seen[want] += 1
        assert min(seen.values()) >= 25, seen

    def test_random_monic_polynomials(self):
        rng = random.Random(41)
        cubics = [[-1, -3, 0, 1], [1, -4, 0, 1], [1, -2, -1, 1], [-1, -4, 0, 1]]

        def linear():
            return [-rng.randint(-6, 6), 1]

        def quadratic():
            while True:
                s, q = rng.randint(-6, 6), rng.randint(-9, 9)
                if s * s > 4 * q:
                    return [q, -s, 1]

        polys = []
        for _ in range(120):
            d = rng.randint(2, 5)
            polys.append([rng.randint(-7, 7) for _ in range(d)] + [1])
        shapes = [(linear, linear), (linear, quadratic), (quadratic, quadratic),
                  (linear, linear, linear), (linear, quadratic, quadratic),
                  (quadratic, lambda: rng.choice(cubics)), (linear, lambda: rng.choice(cubics)),
                  (linear, linear, lambda: rng.choice(cubics))]
        for _ in range(120):
            polys.append(_poly_product(*(f() for f in rng.choice(shapes))))
        for _ in range(120):
            roots = rng.sample(range(-6, 7), rng.randint(2, 5))
            p = _poly_product(*([-r, 1] for r in roots))
            p[0] += rng.choice([-3, -2, -1, 1, 2, 3])
            polys.append(p)
        seen = {NotIrreducible: 0, NotTotallyReal: 0, None: 0}
        for p in polys:
            want = _sympy_verdict(p)
            assert _make_field_verdict(p) is want, p
            seen[want] += 1
        assert min(seen.values()) >= 40, seen



class TestRootLayerAgainstFractions:
    """make_field's integer root cells against Fraction Sturm isolation."""

    @staticmethod
    def _polys(rng, n):
        for _ in range(n):
            d = rng.randint(1, 8)
            if rng.random() < 0.5:
                yield [rng.randint(-9, 9) for _ in range(d)] + [1]
                continue
            # a product of linear factors, so repeated, reducible and totally
            # real cases occur, then perturbed in a few coefficients
            roots = (rng.sample(range(-7, 8), d) if rng.random() < 0.5
                     else [rng.randint(-6, 6) for _ in range(d)])
            p = _poly_product(*([-r, 1] for r in roots))
            for i in rng.sample(range(d), rng.randint(0, min(d, 2))):
                p[i] += rng.choice([-3, -2, -1, 1, 2, 3])
            yield p

    @staticmethod
    def _oracle(p, seen):
        """make_field's outcome from Fraction isolation: (exception type,
        message), or (embeddings, each root's cells at 8 and then 70 bits)."""
        try:
            intervals = nfield_oracles.isolate_real_roots(p)
        except (NotIrreducible, NotTotallyReal) as exc:
            return type(exc), str(exc)
        cells = [nfield_oracles.start_cell(p, lo, hi) for lo, hi in intervals]
        assert nfield._isolate_real_roots(p) == cells, p
        # a lower end that is a root of p, whose cell's sign comes from p'
        seen["root at lo"] += any(not _sign_at(p, c[0], c[2]) for c in cells)
        if len(p) > 2 and nfield._has_small_factor(p, cells):
            return NotIrreducible, f"{p} has a rational factor"
        refined = []
        for cell in cells:
            at_8 = nfield._bisect(p, cell, 8)
            refined.append((at_8[:3], nfield._bisect(p, at_8, 70)[:3]))
        return tuple(intervals), refined

    def test_same_embeddings_cells_and_errors(self):
        rng = random.Random(20)
        seen = {"field": 0, "repeated factor": 0, "rational factor": 0, "real roots": 0,
                "root at lo": 0}
        for p in self._polys(rng, 2000):
            want = self._oracle(p, seen)
            try:
                fld = make_field(p)
            except (NotIrreducible, NotTotallyReal) as exc:
                assert (type(exc), str(exc)) == want, p
                seen[next(k for k in seen if k in str(exc))] += 1
            else:
                cells = [(fld._refined_root(i, 8), fld._refined_root(i, 70))
                         for i in range(fld.degree)]
                assert (fld.embeddings, cells) == want, p
                seen["field"] += 1
        assert min(seen.values()) >= 20, seen

    def test_field_built_without_cells(self):
        # a Field constructed directly isolates its min_poly on first use
        f = make_field([1, 3, -3, -4, 1, 1])
        g = nfield.Field(f.min_poly, f.embeddings, f.galois, f.degree)
        assert g == f and "_cells" not in g.__dict__
        assert [embed(g.gen, i, 100) for i in range(5)] == [embed(f.gen, i, 100) for i in range(5)]
        assert g._cells == f._cells


def test_fields_and_primes_without_sympy():
    script = textwrap.dedent("""
        import sys

        sys.modules["sympy"] = None  # any import of sympy now fails
        from hmfcert import nfield, primes

        assert nfield.make_field([-1, 3, 6, -4, -5, 1, 1]).degree == 6
        try:
            nfield.make_field([2, 0, 0, 1])
        except nfield.NotTotallyReal:
            pass
        else:
            raise AssertionError("x^3 + 2 was accepted")
        assert primes.is_prime(2**89 - 1)
        assert not primes.is_prime(3317044064679887385961981)
        print("ok")
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")


def test_certify_path_imports_no_sympy():
    script = textwrap.dedent(f"""
        import sys
        from fractions import Fraction

        import hmfcert.cli
        from hmfcert import criteria, nfield, weights

        nfield.make_field([-5, 0, 1])
        nfield.make_field([-1, -3, 0, 1])
        nfield.make_field([1, 0, -4, 0, 1])
        fld = nfield.make_field({CYCLIC_QUINTIC}, galois={CYCLIC_QUINTIC_GALOIS})
        inputs = criteria.CertificationInputs(
            field=fld, weight=weights.make_weight([4, 2, 2, 2, 2]), delta=11,
            units=(fld.gen * fld.gen,))
        report = criteria.certify(inputs)
        assert report.irr.per_subset
        print("sympy" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
