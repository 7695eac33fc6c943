"""Oracles for the exact tests that production code does not use.

bareiss_det_by_rows and solve_by_gauss_jordan are the two elimination
loops that exact._bareiss replaced: a determinant that swaps only on a
zero pivot and clears each pivot column, and a fraction-free Gauss-Jordan
solve that updates every row above and below the pivot, so that [A | B]
ends as [d*I | Y].
"""


def bareiss_det_by_rows(m) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
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


def solve_by_gauss_jordan(a, b) -> tuple[int, list[list[int]]]:
    """(d, Y) with A*Y = d*B, d the last pivot: every entry of [A | B] after
    step k is a minor of the input, so the division by the previous pivot is
    exact, and the final [d*I | Y] has d = +-det(A) and Y = d * A^-1 * B."""
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
