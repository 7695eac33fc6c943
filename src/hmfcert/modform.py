"""Adjoint L-factor identities, the archimedean factor, and coefficient
bookkeeping for q-expansions over a real quadratic field.

Local Euler data is a pair of eigenvalues (alpha, beta) with
alpha * beta = psi0 * q^(k0-1); sampling on the Ramanujan circle
(|alpha| = q^((k0-1)/2)) makes complex conjugation an honest involution,
which is what the zeta-ratio identity verifier exercises.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .exact import _poly_eval, _poly_mul
from .nfield import (Field, FieldElem, NotTotallyPositive, embed, is_totally_positive,
                     orbit_reduce, trace)
from .weights import Weight


class ZeroEigenvalue(Exception):
    pass


class SamplePole(Exception):
    pass


class PoleAtS(Exception):
    pass


class MissingRatio(Exception):
    pass


class MissingCoefficient(KeyError):
    pass


class EulerParams(namedtuple("EulerParams", "alpha beta psi0 q k0")):
    """Eigenvalues alpha, beta at a place of norm q, with alpha * beta = psi0 * q^(k0-1)."""

    __slots__ = ()


def ramanujan_sample(q: int, k0: int, theta: float, psi_angle: float = 0.0) -> EulerParams:
    """Eigenvalue pair on the Ramanujan circle with unitarized character."""
    psi0 = cmath.exp(1j * psi_angle)
    alpha = q ** ((k0 - 1) / 2) * cmath.exp(1j * theta)
    beta = psi0 * q ** (k0 - 1) / alpha
    return EulerParams(alpha=alpha, beta=beta, psi0=psi0, q=q, k0=k0)


def adjoint_local_factor(e: EulerParams) -> list[complex]:
    """Coefficients of (1 - a/b X)(1 - X)(1 - b/a X), low degree first."""
    if e.alpha == 0 or e.beta == 0:
        raise ZeroEigenvalue("eigenvalues must be nonzero")
    r = e.alpha / e.beta
    poly = [1 + 0j]
    for root in (r, 1, 1 / r):
        poly = _poly_mul(poly, [1, -root])
    return poly


class DLocalFactor(namedtuple("DLocalFactor", "numerator denominator")):
    """Coefficient lists of complex numbers in X = Nm(v)^-s, low degree first."""

    __slots__ = ()


def d_local_factor(e: EulerParams) -> DLocalFactor:
    """Rational local factor of the twisted tensor-square product."""
    if e.alpha == 0 or e.beta == 0:
        raise ZeroEigenvalue("eigenvalues must be nonzero")
    a, b = e.alpha, e.beta
    ab = a * b
    num = [1 + 0j, 0j, -(ab * ab.conjugate())]
    den = [1 + 0j]
    for g in (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate()):
        den = _poly_mul(den, [1, -g])
    return DLocalFactor(numerator=num, denominator=den)


def _d_value(f: DLocalFactor, x: complex) -> complex:
    den = _poly_eval(f.denominator, x)
    if abs(den) < 1e-300:
        raise SamplePole("denominator vanishes at the sample")
    return _poly_eval(f.numerator, x) / den


def verify_zeta_ratio(e: EulerParams, s_samples, *, break_conjugation: bool = False) -> float:
    """Max relative error of the single-place zeta-ratio identity.

    Checks (1 - q^-2s)^-1 D_v(s + k0 - 1) = (1 - q^-s)^-1 L_v(Ad, s) at
    each sample.  break_conjugation deliberately mis-conjugates one factor
    to demonstrate the test's sensitivity.
    """
    q, k0 = e.q, e.k0
    f = d_local_factor(e)
    if break_conjugation:
        a, b = e.alpha, e.beta
        den = [1 + 0j]
        for g in (a * a.conjugate(), a * b, b * a.conjugate(), b * b.conjugate()):
            den = _poly_mul(den, [1, -g])
        f = DLocalFactor(numerator=f.numerator, denominator=den)
    lpoly = adjoint_local_factor(e)
    worst = 0.0
    for s in s_samples:
        xs = q ** (-complex(s))
        x2s = xs * xs
        xw = q ** (-(complex(s) + k0 - 1))
        zeta2 = 1 - x2s
        zeta1 = 1 - xs
        if abs(zeta1) < 1e-12 or abs(zeta2) < 1e-12:
            raise SamplePole("zeta factor vanishes at the sample")
        lval = _poly_eval(lpoly, xs)
        if abs(lval) < 1e-12:
            raise SamplePole("adjoint factor vanishes at the sample")
        lhs = _d_value(f, xw) / zeta2
        rhs = (1 / lval) / zeta1
        err = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, err)
    return worst


def lstar_correction(local_type: str, q: int) -> list[Fraction]:
    """Euler-factor correction at a bad place, as a polynomial in q^-s.

    PrincipalMinimal -> 1 - q^-s; SpecialMinimal -> 1 - q^-s-1; else 1.
    """
    if local_type == "PrincipalMinimal":
        return [Fraction(1), Fraction(-1)]
    if local_type == "SpecialMinimal":
        return [Fraction(1), Fraction(-1, q)]
    if local_type == "Other":
        return [Fraction(1)]
    raise ValueError(f"unknown local type {local_type!r}")


def eval_correction(coeffs, q: int, s: complex) -> complex:
    return _poly_eval([complex(c) for c in coeffs], q ** (-complex(s)))


# Lanczos approximation (g = 7, 9 terms): ~15 significant digits.
_LANCZOS_G = 7
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    z = complex(z)
    if z.real < 0.5:
        # reflection
        s = cmath.sin(cmath.pi * z)
        if abs(s) < 1e-280:
            raise PoleAtS(f"gamma pole at {z}")
        return cmath.pi / (s * complex_gamma(1 - z))
    z -= 1
    x = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        x += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def gamma_adjoint(s: complex, w: Weight, convention: str = "AsPrinted") -> complex:
    """Archimedean factor: product over embeddings of
    pi^-(s+1)/2 Gamma((s+1)/2) (2pi)^(+-(s+k_t-1)) Gamma(s+k_t-1).

    AsPrinted keeps the positive exponent on the 2-pi power; Standard uses
    the negative exponent.
    """
    if convention not in ("AsPrinted", "Standard"):
        raise ValueError("convention must be AsPrinted or Standard")
    s = complex(s)
    out = 1 + 0j
    for kt in w.k:
        half = (s + 1) / 2
        for z in (half, s + kt - 1):
            if abs(z.imag) < 1e-12 and z.real <= 0 and abs(z.real - round(z.real)) < 1e-12:
                raise PoleAtS(f"gamma pole at {z}")
        expo = s + kt - 1 if convention == "AsPrinted" else -(s + kt - 1)
        out *= (
            cmath.pi ** (-half)
            * complex_gamma(half)
            * (2 * cmath.pi) ** expo
            * complex_gamma(s + kt - 1)
        )
    return out


class AdjointInputs(namedtuple("AdjointInputs", "abs_k delta h_f petersson w_f ratio")):
    """petersson is a Fraction or a float; w_f a complex and ratio a Fraction, or None."""

    __slots__ = ()

    def __new__(cls, abs_k: int, delta: int, h_f: int, petersson, w_f=None, ratio=None):
        if delta < 1 or h_f < 1:
            raise ValueError("delta and h_f must be >= 1")
        return super().__new__(cls, abs_k, delta, h_f, petersson, w_f, ratio)


def lambda_star(inputs: AdjointInputs):
    """2^(|k|-1) / (Delta h_F) times the Petersson norm; exact if it is."""
    coeff = Fraction(2 ** (inputs.abs_k - 1), inputs.delta * inputs.h_f)
    if isinstance(inputs.petersson, Fraction):
        return coeff * inputs.petersson
    return float(coeff) * inputs.petersson


def _valuation(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def critical_ratio_predicate(inputs: AdjointInputs, p: int) -> bool:
    """Positive p-adic valuation of the caller's normalized critical ratio."""
    if inputs.ratio is None:
        raise MissingRatio("the exact rational ratio field is required")
    return _valuation(Fraction(inputs.ratio), p) > 0


# ---------------------------------------------------------------------------
# symbolic bookkeeping for the residue coefficient


def symbolic_mul(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def symbolic_div(a: dict, b: dict) -> dict:
    return symbolic_mul(a, {k: -v for k, v in b.items()})


def shimura_leading_coefficient(w: Weight) -> dict:
    """Exponent dict for 2^(d-1) (4pi)^|k| prod Gamma(k_t)^-1."""
    abs_k = sum(w.k)
    return {"2": w.d - 1 + 2 * abs_k, "pi": abs_k, "gamma_prod": -1}


def residue_coefficient(w: Weight) -> dict:
    """Exponent dict for (4pi)^|k| pi^d / (2 Delta h_F prod Gamma(k_t))."""
    abs_k = sum(w.k)
    out = {"2": 2 * abs_k - 1, "pi": abs_k + w.d, "gamma_prod": -1,
           "Delta": -1, "h_F": -1}
    return out


def residue_cross_check(w: Weight) -> dict:
    """Residual exponents of (zeta-ratio coefficient) / (volume route).

    Expands the residue coefficient through the volume formula and the
    class number formula; the pieces in pi, 2, Gamma(k_t), Delta, h_F and
    the regulator cancel exactly.  What survives is the square of the
    index of squares inside the totally positive units, a normalization
    the printed measure conventions leave undetermined; the test pins it.
    """
    d = w.d
    abs_k = sum(w.k)
    # Route 1: Shimura's residue times zeta^0(2), through the volume formula.
    #   coeff = 2^(d-1) (4pi)^|k| gamma_prod^-1 R_F idx * mu^-1
    #   mu = 2 Nm(d)^{3/2} zeta_F(2) Nm(n) prod_(v|n)(1 + Nm(v)^-1) / (pi^d idx)
    route1 = {"2": d - 1 + 2 * abs_k, "pi": abs_k, "gamma_prod": -1,
              "R_F": 1, "idx": 1}
    mu = {"2": 1, "disc": Fraction(3, 2), "zeta_F(2)": 1, "Nm(n)": 1,
          "local(1+Nm^-1)": 1, "pi": -d, "idx": -1}
    route1 = symbolic_div(route1, mu)
    # multiply by zeta^0(2) = zeta_F(2) * local(1 - Nm^-2)
    route1 = symbolic_mul(route1, {"zeta_F(2)": 1, "local(1-Nm^-2)": 1})
    # local(1 - Nm^-2) = local(1 - Nm^-1) * local(1 + Nm^-1)
    route1 = symbolic_mul(route1, {"local(1-Nm^-2)": -1,
                                   "local(1-Nm^-1)": 1, "local(1+Nm^-1)": 1})
    # Route 2: the printed coefficient with Res zeta^0 expanded by the class
    # number formula Res zeta_F = 2^(d-1) R_F h_F / sqrt(disc) and
    # Res zeta^0 = Res zeta_F * local(1 - Nm^-1); Delta = Nm(n) * disc.
    route2 = {"2": 2 * abs_k - 1, "pi": abs_k + d, "gamma_prod": -1,
              "Delta": -1, "h_F": -1}
    res_zeta = {"2": d - 1, "R_F": 1, "h_F": 1, "disc": Fraction(-1, 2),
                "local(1-Nm^-1)": 1}
    route2 = symbolic_mul(route2, res_zeta)
    route2 = symbolic_mul(route2, {"Delta": 1, "Nm(n)": -1, "disc": -1})
    return symbolic_div(route1, route2)


# ---------------------------------------------------------------------------
# q-expansion coefficients over a real quadratic field


class ScaledValue(namedtuple("ScaledValue", "factor base")):
    """A stored coefficient times an exact unit-power factor in the field."""

    __slots__ = ()

    @property
    def is_rational(self) -> bool:
        return self.factor.is_rational()

    def exact(self):
        if not self.is_rational:
            raise ValueError("factor is irrational; use approx()")
        return self.factor.as_rational() * self.base

    def approx(self, precision_bits: int = 64) -> complex:
        iv = embed(self.factor, 0, precision_bits)
        return complex(float(iv.center)) * complex(self.base)


def load_qexpansion(path, field: Field, weight: Weight, unit: FieldElem) -> "QExpansion":
    """Read a q-expansion from a JSON file of (xi-coordinates, value) pairs.

    Schema: {"ideal_label": str, "coefficients": [[[c0, c1], value], ...]}
    with coordinates and values as ints or "p/q" strings.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    coeffs = {}
    for coords, value in payload["coefficients"]:
        xi = field.element([Fraction(str(c)) for c in coords])
        coeffs[xi] = Fraction(str(value))
    return QExpansion(field, weight, payload.get("ideal_label", ""), coeffs, unit)


class QExpansion:
    """Orbit-canonical coefficient store a_xi for a degree-2 field."""

    def __init__(self, field: Field, weight: Weight, ideal_label: str,
                 coeffs: dict, unit: FieldElem):
        if field.degree != 2:
            raise ValueError("q-expansion bookkeeping requires degree 2")
        if weight.d != 2:
            raise ValueError("weight length must be 2")
        self.field = field
        self.weight = weight
        self.ideal_label = ideal_label
        self.unit = unit
        canon = {}
        for xi, val in coeffs.items():
            key = orbit_reduce(xi, unit)
            if key in canon and canon[key] != val:
                raise ValueError(f"conflicting values on the orbit of {xi}")
            canon[key] = val
        self.coeffs = canon

    def _transform_factor(self, u: FieldElem) -> FieldElem:
        """u^(k+m-t) as an element: u^c0 * conj(u)^c1."""
        w = self.weight
        c = tuple(w.k[t] + w.m[t] - 1 for t in range(2))
        conj = self.field.element([trace(u)]) - u
        return u ** c[0] * conj ** c[1]

    def coefficient_of(self, xi: FieldElem) -> ScaledValue:
        if not is_totally_positive(xi):
            raise NotTotallyPositive("xi must be totally positive")
        # the full totally-positive-unit orbit is the even-power orbit of xi
        # together with the even-power orbit of unit * xi
        key = orbit_reduce(xi, self.unit)
        if key not in self.coeffs:
            key = orbit_reduce(xi * self.unit, self.unit)
            if key not in self.coeffs:
                raise MissingCoefficient(repr(xi))
        u = xi * key.inverse()
        return ScaledValue(factor=self._transform_factor(u), base=self.coeffs[key])

    def c_of_ideal(self, xi: FieldElem) -> ScaledValue:
        """xi^m times the coefficient: invariant under unit rescaling of xi."""
        w = self.weight
        base = self.coefficient_of(xi)
        conj = self.field.element([trace(xi)]) - xi
        ximu = xi ** w.m[0] * conj ** w.m[1]
        return ScaledValue(factor=ximu * base.factor, base=base.base)
