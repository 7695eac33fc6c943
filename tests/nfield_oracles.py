"""Oracles for the nfield tests that production code does not use.

isolate_real_roots is root isolation on Fraction Sturm chains: exact
remainders by Fraction long division, sign variations by Fraction Horner
at every bisection point.  start_cell turns one of its intervals into the
dyadic cell that root refinement starts from, the sign of min_poly just
above the lower end included.

quadratic_product computes the symmetrized products of a quadratic field
exactly, as the norm of a - b, with a and b products of powers of eps and
its conjugate; symmetrized_norm and symmetrized_difference_norm are checked
against it.
"""

import math
from fractions import Fraction

from hmfcert.exact import _poly_eval, _sign_at
from hmfcert.nfield import (
    DyadicInterval,
    NotIrreducible,
    NotTotallyReal,
    _poly_trim,
    norm,
    trace,
)


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


def sturm_chain(p):
    chain = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(coeffs) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi], ascending, one per root.

    Raises NotIrreducible on a repeated factor, then NotTotallyReal when
    fewer than deg p roots are real.
    """
    p = [Fraction(c) for c in coeffs]
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        raise NotIrreducible(f"{coeffs} has a repeated factor")
    bound = Fraction(math.ceil(1 + max(abs(c) for c in p[:-1]) / abs(p[-1])))

    out = []

    def recurse(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = sign_variations(chain, lo) - sign_variations(chain, mid)
        recurse(lo, mid, left)
        recurse(mid, hi, count - left)

    total = sign_variations(chain, -bound) - sign_variations(chain, bound)
    if total < len(p) - 1:
        raise NotTotallyReal(f"only {total} real roots for degree {len(p) - 1}")
    recurse(-bound, bound, total)
    return out


def start_cell(p, lo: Fraction, hi: Fraction) -> tuple[int, int, int, int]:
    """(lo_m, hi_m, exp, sign of p just above lo) for a dyadic isolating interval."""
    iv = DyadicInterval(lo, hi)
    sign_lo = _sign_at(p, iv.lo_m, iv.exp)
    if sign_lo == 0:
        # the endpoint is itself a simple root, which only a reducible p has:
        # p has the sign of p' just above it
        sign_lo = _sign_at([i * c for i, c in enumerate(p)][1:], iv.lo_m, iv.exp)
    return iv.lo_m, iv.hi_m, iv.exp, sign_lo


def quadratic_product(eps, e, subset) -> Fraction:
    """prod over Gal(F/Q) of (prod_{t in J} eps_t^e_t - prod_{t not in J} eps_t^e_t)
    on a quadratic field, J = subset, as norm(a - b) in the field."""
    fld = eps.field
    parts = (eps, fld.element([trace(eps)]) - eps)
    a = b = fld.one
    for t in range(2):
        if t in subset:
            a = a * parts[t] ** e[t]
        else:
            b = b * parts[t] ** e[t]
    return norm(a - b)
