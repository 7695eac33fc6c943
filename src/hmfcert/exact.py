"""Exact kernels shared across hmfcert: fraction-free integer elimination,
characteristic polynomials and dense polynomial arithmetic.

bareiss_det and _solve are the integer elimination core of lattice, and
nfield clears denominators and calls them for norms and inverses.
_charpoly gives lattice the eigenvalue candidates of its operators and
nfield the integrality test of its units.  The
polynomial helpers work on dense lists, low degree first, over any
coefficient ring: nfield multiplies and reduces field elements with them,
gl2img builds its F_q tables, modform its complex local factors, and
lattice tests its integer root candidates.  _as_int reads caller data
as integers.  The module imports nothing from hmfcert, so each of those
modules can use it without loading another.
"""

from __future__ import annotations

from fractions import Fraction


def _as_int(x, what: str) -> int:
    """x as an int, if it is an int (not a bool) or a Fraction with denominator 1."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and int(x) == x:
        return int(x)
    raise ValueError(f"{what} must be an integer, not {x!r}")


def bareiss_det(m) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _solve(a, b) -> tuple[int, list[list[int]]]:
    """(d, Y) with A*Y = d*B and d != 0, for square integer A and integer B.

    Fraction-free Gauss-Jordan (Bareiss): every entry of [A | B] after step
    k is a minor of the input, so the division by the previous pivot is
    exact, and the final [d*I | Y] has d = +-det(A) and Y = d * A^-1 * B.
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        pk = rk[k]
        for i in range(n):
            f = rows[i][k]
            # with f == 0 and pk == prev the update is the identity
            if i != k and (f or pk != prev):
                rows[i] = [(pk * x - f * y) // prev for x, y in zip(rows[i], rk)]
        prev = pk
    return prev, [row[n:] for row in rows]


def _charpoly(m) -> list[Fraction]:
    """Characteristic polynomial det(xI - M), low degree first, exact.

    Berkowitz's division-free recursion over the leading principal blocks:
    bordering the block A_k by column C, row R and corner a multiplies its
    polynomial by the Toeplitz matrix of 1, -a, -RC, -RAC, ..., -RA^(k-1)C.
    """
    n = len(m)
    poly = [Fraction(1)]  # high degree first
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
