"""Exact kernels shared across hmfcert: fraction-free integer elimination,
characteristic polynomials, dense polynomial arithmetic and Sturm chains.

bareiss_det and _solve, both on the one Bareiss pass _bareiss, are the
integer elimination core of lattice, and nfield clears denominators and
calls them for norms and inverses.  _charpoly gives lattice the integer
characteristic polynomial of each operator and nfield the integrality test
of its units.  The polynomial helpers work on dense lists, low degree
first, over any ring: nfield multiplies field elements with them, gl2img
finds its F_q moduli and modform builds its complex local factors.
_root_cells isolates real roots in dyadic cells on the integer Sturm chain
and _bisect refines a cell: nfield's field roots and lattice's integer
roots both come from them.  _as_int reads caller data as integers, and
_Frozen makes the fields of a plain record read-only.  The module imports
nothing from hmfcert, so each of those modules can use it without loading
another.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _as_int(x, what: str) -> int:
    """x as an int, if it is an int (not a bool) or a Fraction with denominator 1."""
    if x.__class__ is int:  # the common case, which the certifier meets per subset
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and int(x) == x:
        return int(x)
    raise ValueError(f"{what} must be an integer, not {x!r}")


class _Frozen:
    """Base of the plain (non-tuple) records whose fields __init__ sets once
    with object.__setattr__: assigning or deleting an attribute raises.

    The fields live in the instance __dict__, not in __slots__, so that copy
    and pickle restore them without calling __setattr__.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bareiss(rows, n: int) -> int:
    """Forward fraction-free elimination (Bareiss) on the first n columns, in place.

    Step k swaps up the first row with a nonzero entry in column k and sets
    each row r below it to (p_k * r - r[k] * pivot row) // p_(k-1) on the
    columns after k (a minor, so exact); with r[k] = 0 and p_k = p_(k-1) r
    stays.  Returns the swaps' sign, rows[n-1][n-1] then being that sign
    times the determinant, or 0 when some column has no pivot.
    """
    sign = prev = 1
    for k in range(n):
        rk = rows[k]
        if not rk[k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv], sign = rows[piv], rk, -sign
            rk = rows[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            f = ri[k]
            if f or pk != prev:
                for j in range(k + 1, len(ri)):
                    ri[j] = (pk * ri[j] - f * rk[j]) // prev
        prev = pk
    return sign


def bareiss_det(m) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return _bareiss(a, n) * a[-1][-1] if n else 1


def _solve(a, b) -> tuple[int, list[list[int]]]:
    """(d, Y) with A*Y = d*B and d != 0, for square integer A and integer B.

    _bareiss on [A | B] leaves [U | B'], U upper triangular with U*X = B' for
    X = A^-1 * B, and d = U[n-1][n-1] = +-det(A).  Back substitution takes
    Y = d*X from the bottom, Y[i] = (d*B'[i] - sum_{j>i} U[i][j]*Y[j]) /
    U[i][i], each division exact as Y is an integer matrix (Cramer's rule).
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if not _bareiss(rows, n):
        raise ValueError("singular matrix")
    d = rows[-1][n - 1] if n else 1
    y = [None] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        acc = [d * x for x in ri[n:]] if d != 1 else ri[n:]
        for j in range(i + 1, n):
            u = ri[j]
            if u:
                acc = [s - u * t for s, t in zip(acc, y[j])]
        y[i] = [s // ri[i] for s in acc] if ri[i] != 1 else acc
    return d, y


def _charpoly(m) -> list:
    """Characteristic polynomial det(xI - M), low degree first, exact.

    Berkowitz's division-free recursion over the leading principal blocks:
    bordering the block A_k by column C, row R and corner a multiplies its
    polynomial by the Toeplitz matrix of 1, -a, -RC, -RAC, ..., -RA^(k-1)C.
    Seeded with the int 1, an integer M gives int coefficients.
    """
    n = len(m)
    poly = [1]  # high degree first
    for k in range(n):
        t = [1, -m[k][k]]
        v = [m[i][k] for i in range(k)]
        for _ in range(k):
            t.append(-sum(r * x for r, x in zip(m[k], v)))
            v = [sum(m[i][j] * v[j] for j in range(k)) for i in range(k)]
        poly = [sum(t[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
                for i in range(k + 2)]
    return poly[::-1]


# ---------------------------------------------------------------------------
# dense polynomials (lists, low degree first)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(a, m):
    """Remainder of a by the monic m, in a's coefficient ring."""
    r = list(a)
    k = len(m) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            for j in range(k):
                r[i - k + j] -= c * m[j]
    return r[:k]


def _poly_eval(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _sign_at(p, m: int, exp: int) -> int:
    """Sign of p(m / 2^exp) for integer p, by Horner on 2^(exp*d) * p(m / 2^exp)."""
    acc = p[-1]
    for k, c in enumerate(reversed(p[:-1]), 1):
        acc = acc * m + (c << (exp * k))
    return (acc > 0) - (acc < 0)


def _sturm_chain(p) -> list[list[int]]:
    """p, p', then each -(a rem b) of the last two, divided by its content.

    a rem b is taken as s*a - c*x^k*b with s > 0, one leading term at a
    time, so every member is a positive multiple of the rational Sturm
    chain's and has its signs.  The last member is a multiple of gcd(p, p').
    """
    chain = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while True:
        a, b = chain[-2], chain[-1]
        while len(a) >= len(b):
            g = math.gcd(a[-1], b[-1])
            c, s = a[-1] // g, b[-1] // g
            if s < 0:
                c, s = -c, -s
            k = len(a) - len(b)
            a = [s * x for x in a]
            for i, y in enumerate(b):
                a[k + i] -= c * y
            _poly_trim(a)
        if not a:
            return chain
        g = math.gcd(*a)
        chain.append([-x // g for x in a])


def _root_cells(chain) -> list[tuple[int, int, int, int]]:
    """One cell (lo_m, hi_m, exp, sign_lo) per real root of p = chain[0], ascending.

    chain is the Sturm chain of a squarefree integer p.  The cells are the
    parts of (-B, B], B = 1 + max |c_i| below the leading term, halved until
    the chain counts one root in each (Basu, Pollack & Roy, Thm 2.50), at
    the least exponent that holds both ends.  sign_lo is p's sign just above
    lo: p(lo)'s, or p'(lo)'s when lo is a root, which the cell below holds.
    """
    out = []

    def variations(m, exp):
        signs = [s for s in (_sign_at(q, m, exp) for q in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def recurse(lo_m, hi_m, exp, v_lo, v_hi):
        if v_lo - v_hi == 1:
            while exp and not (lo_m | hi_m) & 1:
                lo_m, hi_m, exp = lo_m >> 1, hi_m >> 1, exp - 1
            sign_lo = _sign_at(chain[0], lo_m, exp) or _sign_at(chain[1], lo_m, exp)
            out.append((lo_m, hi_m, exp, sign_lo))
        elif v_lo > v_hi:
            mid = lo_m + hi_m
            v_mid = variations(mid, exp + 1)
            recurse(lo_m << 1, mid, exp + 1, v_lo, v_mid)
            recurse(mid, hi_m << 1, exp + 1, v_mid, v_hi)

    bound = 1 + max(abs(c) for c in chain[0][:-1])
    recurse(-bound, bound, 0, variations(-bound, 0), variations(bound, 0))
    return out


def _bisect(p, root, bits: int) -> tuple[int, int, int, int]:
    """Halve root = (lo_m, hi_m, exp, sign_lo) of p until hi - lo <= 2^-bits.

    Each step adds one bit to the exponent, so hi_m - lo_m stays fixed; a
    midpoint that is a root ends the search as the point cell (mid, mid).
    """
    lo_m, hi_m, exp, sign_lo = root
    gap = hi_m - lo_m
    if gap == 0:
        return root
    while exp < bits + (gap - 1).bit_length():
        mid = lo_m + hi_m
        lo_m, hi_m, exp = lo_m << 1, hi_m << 1, exp + 1
        s = _sign_at(p, mid, exp)
        if s == 0:
            return mid, mid, exp, sign_lo
        if s == sign_lo:
            lo_m = mid
        else:
            hi_m = mid
    return lo_m, hi_m, exp, sign_lo
