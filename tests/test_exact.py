"""The shared exact kernels against the loops they replaced.

exact._bareiss is the one elimination behind bareiss_det and _solve, and
exact._root_cells with exact._bisect is the one real-root isolator behind
nfield's root cells and lattice's integer roots.  The oracles are the
earlier, separate loops: tests/exact_oracles.py for the eliminations and
lattice_oracles.integer_roots_by_integer_cells for the integer roots.
"""

import random
from fractions import Fraction

import nfield_oracles
from exact_oracles import bareiss_det_by_rows, solve_by_gauss_jordan
from lattice_oracles import integer_roots_by_integer_cells

from hmfcert.exact import _bisect, _root_cells, _sign_at, _solve, _sturm_chain, bareiss_det
from hmfcert.lattice import _integer_roots


def _poly_from_factors(factors):
    p = [1]
    for f in factors:
        p = [sum(p[j] * f[i - j] for j in range(len(p)) if 0 <= i - j < len(f))
             for i in range(len(p) + len(f) - 1)]
    return p


def _square_matrix(rng, n):
    """A square matrix that often needs a row swap or is singular."""
    kind = rng.randrange(4)
    if kind == 0:  # dense
        return [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
    m = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
    if kind == 1 and n:  # a permuted triangular matrix: swaps at every zero pivot
        m = [[rng.randint(1, 9) if j == i else (rng.randint(-9, 9) if j > i else 0)
              for j in range(n)] for i in range(n)]
        rng.shuffle(m)
    elif kind == 2 and n > 1:  # a dependent row
        i, j = rng.sample(range(n), 2)
        m[i] = [2 * x - 3 * y for x, y in zip(m[j], m[rng.randrange(n)])]
    return m


def test_elimination_against_the_old_loops():
    rng = random.Random(27)
    seen = {"swap": 0, "singular": 0, "nonsingular": 0, "empty B": 0}
    for _ in range(3000):
        n = rng.randint(0, 8)
        a = _square_matrix(rng, n)
        det = bareiss_det(a)
        assert det == bareiss_det_by_rows(a), a
        k = rng.choice((0, 1, 1, 2, 3))
        b = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(n)]
        try:
            want = solve_by_gauss_jordan(a, b)
        except ValueError as exc:
            want = str(exc)
        try:
            got = _solve(a, b)
        except ValueError as exc:
            got = str(exc)
        assert got == want, (a, b)
        seen["singular" if det == 0 else "nonsingular"] += 1
        seen["swap"] += any(a[i][i] == 0 for i in range(n)) and det != 0
        seen["empty B"] += k == 0
        assert (det == 0) == (want == "singular matrix")
    assert min(seen.values()) >= 300, seen


def test_elimination_edge_cases():
    assert bareiss_det([]) == 1
    assert _solve([], []) == (1, [])
    assert _solve([[0, 1], [1, 0]], [[], []]) == solve_by_gauss_jordan([[0, 1], [1, 0]], [[], []])
    # the only pivot of the first column is in the last row
    a = [[0, 2, 1], [0, 1, 3], [5, 1, 1]]
    assert bareiss_det(a) == bareiss_det_by_rows(a) == 25
    assert _solve(a, [[1], [2], [3]]) == solve_by_gauss_jordan(a, [[1], [2], [3]])
    # a zero last pivot is singular
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_solve_satisfies_its_equation():
    rng = random.Random(28)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        a = _square_matrix(rng, n)
        if not bareiss_det(a):
            continue
        b = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(n)]
        d, y = _solve(a, b)
        assert abs(d) == abs(bareiss_det(a))
        assert [[sum(a[i][t] * y[t][j] for t in range(n)) for j in range(k)]
                for i in range(n)] == [[d * x for x in row] for row in b]


def _random_polys(rng, count):
    """Integer polynomials with repeated factors, non-real roots, roots near
    10^9 and roots at the dyadic points where isolation splits a cell."""
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(6)
            if kind == 0:
                f = [-rng.randint(-30, 30), 1]
            elif kind == 1:  # 0 and +-2^j are the first split points of (-B, B]
                f = [-rng.choice((0, 1, -1)) * 2 ** rng.randint(0, 6), 1]
            elif kind == 2:
                f = [-(10**9 + rng.randint(-3, 3)), 1]
            elif kind == 3:  # no real roots
                f = [rng.randint(1, 9), rng.randint(-1, 1), 1]
            elif kind == 4:  # a rational root that is not an integer
                f = [rng.randint(-9, 9), rng.randint(2, 5)]
            else:  # irrational or integer roots
                f = [rng.randint(-9, 9), rng.randint(-9, 9), rng.choice((1, -1, 2))]
            factors += [f] * rng.choice((1, 1, 1, 2, 3))
        yield [rng.choice((1, -1, 3)) * c for c in _poly_from_factors(factors)]


def test_integer_roots_against_the_old_loop():
    rng = random.Random(29)
    for p in _random_polys(rng, 600):
        assert _integer_roots(p) == integer_roots_by_integer_cells(p), p


def test_integer_roots_at_dyadic_split_points():
    # (-4, 4] splits at 0, and x^2 - 3x's root 0 is the lower end of the cell
    # (0, 4] that holds the root 3
    assert _root_cells(_sturm_chain([0, -3, 1])) == [(-4, 0, 0, 1), (0, 4, 0, -1)]
    assert _integer_roots([0, -3, 1]) == [0, 3]
    assert _integer_roots([0, -16, 0, 1]) == [-4, 0, 4]  # x(x - 4)(x + 4)
    assert _integer_roots(_poly_from_factors([[0, 1], [-8, 1], [8, 1], [-4, 1], [4, 1]])) \
        == [-8, -4, 0, 4, 8]


def test_root_cells_against_fraction_isolation():
    # squarefree products of distinct linear factors, many with a root at a
    # cell's lower end: each cell is the Fraction oracle's, with the sign of
    # p' where p vanishes at lo, and bisection keeps a root inside the cell
    rng = random.Random(30)
    lower_end_roots = 0
    for _ in range(300):
        roots = rng.sample(range(-9, 10), rng.randint(1, 6))
        p = _poly_from_factors([[-r, 1] for r in roots])
        cells = _root_cells(_sturm_chain(p))
        want = [nfield_oracles.start_cell(p, lo, hi)
                for lo, hi in nfield_oracles.isolate_real_roots(p)]
        assert cells == want, p
        lower_end_roots += any(not _sign_at(p, c[0], c[2]) for c in cells)
        found = []
        for cell in cells:
            lo_m, hi_m, exp, _ = _bisect(p, cell, 20)
            lo, hi = Fraction(lo_m, 1 << exp), Fraction(hi_m, 1 << exp)
            found += [r for r in roots if lo < r <= hi or lo == r == hi]
        assert sorted(found) == sorted(roots), p
    assert lower_end_roots >= 40
