"""Correctness oracles built on sympy and mpmath, never on hmfcert.

Every check returns a list of problems (empty when the output is right),
so that a run can report them all and the self-test can show that each
check rejects a planted fault.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import sympy
from sympy.matrices.normalforms import hermite_normal_form

X = sympy.Symbol("x")

# ---------------------------------------------------------------------------
# weights, rebuilt from the definitions: k0 = max k, m_t = (k0 - k_t)/2,
# p(J) has k0 - m_t - 1 on J and m_t off J.


def weight_data(k):
    k0 = max(k)
    m = [(k0 - kt) // 2 for kt in k]
    return k0, m


def irr_exponents(k, mask):
    k0, m = weight_data(k)
    return [k0 - m[t] - 1 if (mask >> t) & 1 else m[t] for t in range(len(k))]


def subset_sums(a, parts):
    d = len(parts)
    return sorted(sum((a - parts[t]) if (mask >> t) & 1 else parts[t] for t in range(d))
                  for mask in range(1 << d))


def parse_label(label: str) -> int:
    inner = label.strip("{}")
    return sum(1 << int(i) for i in inner.split(",")) if inner else 0


def label_indices(mask: int) -> list[int]:
    return [t for t in range(mask.bit_length()) if (mask >> t) & 1]


# ---------------------------------------------------------------------------
# real roots and products at high precision


def _poly_eval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def real_roots(min_poly, dps: int):
    """Ascending real roots of a totally real polynomial to ``dps`` digits."""
    return list(_real_roots(tuple(min_poly), dps))


@functools.lru_cache(maxsize=None)
def _real_roots(min_poly, dps: int):
    deriv = [i * c for i, c in enumerate(min_poly)][1:]
    with mpmath.workdps(40):
        approx = mpmath.polyroots(list(reversed(min_poly)), maxsteps=200, extraprec=200)
        approx = sorted(mpmath.re(r) for r in approx)
    with mpmath.workdps(dps + 10):
        roots = []
        for r in approx:
            r = mpmath.mpf(r)
            for _ in range(4 + int(math.log2(dps + 10))):
                r -= _poly_eval(min_poly, r) / _poly_eval(deriv, r)
            roots.append(r)
    return tuple(roots)


def _elem(coeffs, root):
    return _poly_eval([mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
                       for c in coeffs], root)


def _full_group(d):
    return [list(g) for g in itertools.permutations(range(d))]


def _irr_product(roots, unit, e, group):
    vals = [_elem(unit, r) for r in roots]
    out = mpmath.mpf(1)
    factors = []
    for g in group:
        f = mpmath.mpf(1)
        for t, et in enumerate(e):
            f *= vals[g[t]] ** et
        factors.append(f - 1)
        out *= f - 1
    return out, factors


def _dihedral_product(roots, k, delta, a, b, group):
    k0, m = weight_data(k)
    d = len(k)
    emb = {}
    for j, r in enumerate(roots):
        root = _elem(b, r) * mpmath.sqrt(_elem(delta, r))
        emb[(j, 1)] = _elem(a, r) + root
        emb[(j, -1)] = _elem(a, r) - root
    out = mpmath.mpf(1)
    for signs in itertools.product((1, -1), repeat=d):
        for g in group:
            f = mpmath.mpf(1)
            for t in range(d):
                f *= emb[(g[t], signs[t])] ** m[t] * emb[(g[t], -signs[t])] ** (k0 - m[t] - 1)
            out *= f - 1
    return out, None


def _certified_integer(compute, min_poly):
    """The integer a product evaluates to, or None when it is (numerically) 0.

    The product is evaluated at two precisions, each with 30 digits to spare
    beyond its magnitude; both must round to the same integer.
    """
    with mpmath.workdps(40):
        first, _ = compute(real_roots(min_poly, 40))
    if abs(first) < mpmath.mpf(10) ** -20:
        return None
    digits = int(mpmath.log10(abs(first))) + 1 if abs(first) >= 1 else 1
    values = []
    for extra in (30, 50):
        dps = max(digits, 1) + extra
        with mpmath.workdps(dps):
            v, _ = compute(real_roots(min_poly, dps))
            n = int(mpmath.nint(v))
            if abs(v - n) > mpmath.mpf(10) ** -(extra // 2):
                raise ArithmeticError(f"product {mpmath.nstr(v, 20)} is not near an integer")
        values.append(n)
    if values[0] != values[1]:
        raise ArithmeticError(f"product unstable under precision: {values}")
    return values[0]


def _sympy_roots(min_poly):
    poly = sympy.Poly(list(reversed(min_poly)), X)
    rts = sympy.roots(poly, multiple=True)
    if len(rts) != poly.degree():
        raise ArithmeticError(f"no radical roots for {min_poly}")
    return sorted(rts, key=lambda r: float(sympy.re(sympy.N(r, 30))))


def _proven_zero(min_poly, unit, e, group) -> bool:
    """sympy proof that one factor of the irr product is exactly zero."""
    with mpmath.workdps(40):
        _, factors = _irr_product(real_roots(min_poly, 40), unit, e, group)
    g = group[min(range(len(group)), key=lambda i: abs(factors[i]))]
    rts = _sympy_roots(min_poly)
    unit_poly = [sympy.Rational(str(c)) for c in unit]
    expr = sympy.Integer(1)
    for t, et in enumerate(e):
        expr *= sum(c * rts[g[t]] ** i for i, c in enumerate(unit_poly)) ** et
    return sympy.minimal_polynomial(expr - 1, X) == X


def factor_primes(value: int) -> list[int]:
    return sorted(p for p in sympy.factorint(value) if p > 1)


# ---------------------------------------------------------------------------
# certification reports


class CertifyOracle:
    """Expected subset values of one field, weight and unit."""

    def __init__(self, min_poly, galois, k, units):
        self.min_poly = list(min_poly)
        self.group = galois if galois is not None else _full_group(len(k))
        self.k = list(k)
        self.unit = units[0]

    def irr_value(self, mask):
        """The integer for subset ``mask``, "zero" when sympy proves it 0, else "unproven"."""
        e = irr_exponents(self.k, mask)
        val = _certified_integer(
            lambda rts: _irr_product(rts, self.unit, e, self.group), self.min_poly)
        if val is not None:
            return val
        return "zero" if _proven_zero(self.min_poly, self.unit, e, self.group) else "unproven"

    def dihedral_value(self, quad):
        """The integer of the full sign-assignment product, or "unproven" when 0."""
        (a, b), = quad["units"]
        val = _certified_integer(
            lambda rts: _dihedral_product(rts, self.k, quad["delta"], a, b, self.group),
            self.min_poly)
        return "unproven" if val is None else val


def check_status(where, kind, value, primes, expected):
    """One subset status against its expected value; returns (problems, failed).

    An exact zero passes as degenerate, counts as failed when indeterminate,
    and is an error when it excludes anything.
    """
    if expected == "unproven":
        return [f"{where}: oracle value is 0 to working precision but not proven"], 0
    if expected == "zero":
        if kind == "degenerate":
            return [], 0
        if kind == "indeterminate":
            return [], 1
        return [f"{where}: exact zero reported as {kind} value={value}"], 0
    if kind == "indeterminate":
        return [], 1
    if kind != "excludes":
        return [f"{where}: nonzero value {expected} reported as {kind}"], 0
    problems = []
    if value != expected:
        problems.append(f"{where}: value {value} != oracle {expected}")
    want = factor_primes(expected)
    if list(primes) != want:
        problems.append(f"{where}: primes {list(primes)} != factorint {want}")
    return problems, 0


def check_report(case, statuses, dihedral):
    """Check a certify report given as (mask, kind, value, primes) lists.

    Returns (problems, failed, attempted).
    """
    oracle = CertifyOracle(case["min_poly"], case["galois"], case["k"], case["units"])
    problems, failed = [], 0
    attempted = len(statuses) + sum(len(s) for _, s in dihedral)
    d = len(case["k"])
    masks = [m for m, *_ in statuses]
    want_masks = [m for m in range(1 << d)
                  if len(set(case["k"])) > 1 or m not in (0, (1 << d) - 1)]
    if masks != want_masks:
        problems.append(f"{case['label']}: irr subsets {masks} != {want_masks}")
    for mask, kind, value, primes in statuses:
        p, f = check_status(f"{case['label']} irr J={mask}", kind, value, primes,
                            oracle.irr_value(mask))
        problems += p
        failed += f
    if len(dihedral) != len(case["quads"]):
        problems.append(f"{case['label']}: {len(dihedral)} dihedral reports for "
                        f"{len(case['quads'])} extensions")
    for quad, (label, per) in zip(case["quads"], dihedral):
        expected = oracle.dihedral_value(quad)
        if len(per) != 1 << d:
            problems.append(f"{case['label']} {label}: {len(per)} statuses != {1 << d}")
        for amask, kind, value, primes in per:
            p, f = check_status(f"{case['label']} {label} A={amask}", kind, value,
                                primes, expected)
            problems += p
            failed += f
    return problems, failed, attempted


# ---------------------------------------------------------------------------
# Galois data of the corpus


def check_galois(min_poly, perms, maps):
    """Each h_g maps roots to roots exactly, and alpha_i to alpha_{g(i)}."""
    problems = []
    f = sympy.Poly(list(reversed(min_poly)), X)
    with mpmath.workdps(40):
        rts = real_roots(min_poly, 40)
        for g, h in zip(perms, maps):
            hp = sympy.Poly(list(reversed(h)), X)
            if not f.compose(hp).rem(f).is_zero:
                problems.append(f"{min_poly}: {h} does not permute the roots")
                continue
            for i, r in enumerate(rts):
                if abs(_poly_eval(h, r) - rts[g[i]]) > mpmath.mpf(10) ** -30:
                    problems.append(f"{min_poly}: {h} does not send root {i} to {g[i]}")
    return problems


# ---------------------------------------------------------------------------
# lattices


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _lower_volume(rows, keep: int) -> int:
    """Covolume of L ∩ span(e_0..e_{keep-1}) from sympy's Hermite form."""
    h = hermite_normal_form(sympy.Matrix(rows).T)
    n = len(rows)
    if h.shape != (n, n) or any(h[i, j] != 0 for j in range(n) for i in range(j + 1, n)):
        raise ArithmeticError("unexpected Hermite form shape")
    return abs(math.prod(int(h[i, i]) for i in range(keep)))


class LatticeOracle:
    """Index [L : L_1 ⊕ L_2] of a lattice under the coordinate split at d1."""

    def __init__(self, rows, d1):
        n = len(rows)
        vol1 = _lower_volume(rows, d1)
        vol2 = _lower_volume([list(reversed(r)) for r in rows], n - d1)
        det = _lower_volume(rows, n)
        if (vol1 * vol2) % det:
            raise ArithmeticError("covolumes do not give an integer index")
        self.index = vol1 * vol2 // det


def check_module(where, factors, oracle: LatticeOracle, p: int):
    problems = []
    for f in factors:
        if f < p or _p_part(f, p) != f:
            problems.append(f"{where}: invariant factor {f} is not a power of {p}")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            problems.append(f"{where}: invariant factor {a} does not divide {b}")
    order = math.prod(factors)
    if order != _p_part(oracle.index, p):
        problems.append(f"{where}: module order {order} != p-part of index "
                        f"{_p_part(oracle.index, p)}")
    return problems


def check_search(where, pairs, glued: bool):
    if bool(pairs) != glued:
        return [f"{where}: {len(pairs)} congruent pairs on a "
                f"{'glued' if glued else 'split'} case"]
    return []


# ---------------------------------------------------------------------------
# the other CLI commands


def check_weights(payload, k):
    k0, m = weight_data(k)
    d = len(k)
    hodge = sorted(sum(irr_exponents(k, mask)) for mask in range(1 << d))
    mot = d * (k0 - 1)
    mw = mot % 2 == 1 or mot // 2 not in hodge
    want = {"k": list(k), "k0": k0, "n": [kt - 2 for kt in k], "m": m,
            "hodge_multiset": hodge, "motivic_weight": mot, "mw": mw}
    return [f"weights: {key} = {payload.get(key)} != {val}"
            for key, val in want.items() if payload.get(key) != val]


def check_bgg(payload, k):
    d = len(k)
    level = {mask: sum(irr_exponents(k, mask)) for mask in range(1 << d)}
    cells = []
    for r in range(d + 1):
        for i in sorted(set(level.values())):
            masks = [label_indices(m) for m in sorted(level)
                     if bin(m).count("1") <= r and level[m] == i]
            if masks:
                cells.append({"r": r, "i": i, "subsets": masks})
    fil = [{"i": i, "subsets": [label_indices(m) for m in sorted(level) if level[m] >= i]}
           for i in range(max(level.values()) + 2)]
    problems = []
    if payload.get("cells") != cells:
        problems.append("bgg-table: cells differ from the subset levels")
    if payload.get("filtration") != fil:
        problems.append("bgg-table: filtration differs from the subset levels")
    return problems


def check_classify(payload, p: int, li: bool):
    want = {"q": p, "classification": f"PSL2({p})",
            "projective_order": p * (p * p - 1) // 2}
    if li:
        want["li_subfield"] = p
    return [f"classify-image F_{p}: {key} = {payload.get(key)} != {val}"
            for key, val in want.items() if payload.get(key) != val]


def check_adjoint(payload, samples: int):
    problems = []
    if len(payload.get("samples", [])) != samples:
        problems.append("adjoint-check: wrong number of samples")
    if not payload.get("max_error", 1.0) < 1e-9:
        problems.append(f"adjoint-check: max error {payload.get('max_error')} >= 1e-9")
    if not payload.get("broken_conjugation_error", 0.0) > 1e-3:
        problems.append("adjoint-check: broken conjugation error <= 1e-3")
    return problems


def check_recover(payload, multiset):
    got = subset_sums(payload["a"], payload["parts"])
    if got != sorted(multiset):
        return [f"recover-weights: {payload} gives {got} != {sorted(multiset)}"]
    return []
