import math
import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmfcert.lattice import (
    DegenerateSplit,
    Lattice,
    NotCommuting,
    NotStable,
    Split,
    SupportViolation,
    FusionMismatch,
    bareiss_det,
    congruence_module,
    congruence_modules,
    coordinate_split,
    disc_pairing,
    find_congruences,
    hnf,
    hnf_with_transform,
    left_kernel,
    snf,
    split_lattice,
)
from hmfcert import lattice
from hmfcert.lattice import (
    SplitPieces,
    _charpoly,
    _hnf_mod,
    _integer_roots,
    _lowest_terms,
    _p_part,
    _quotient_invariants,
    _relation_matrix,
    _scale_to_int,
    _solve,
    _transpose,
    mat_mul,
)

from lattice_oracles import (
    find_congruences_by_restriction,
    in_row_span,
    localized_module_nonzero,
    relation_matrix_by_solve,
    snf_pivot_search,
    split_indices,
    split_lattice_from_coords,
    three_way_by_solve,
)


def snf_minors_oracle(m) -> tuple[int, ...]:
    """Independent Smith-form oracle via gcds of k x k minors (small only)."""
    a = [tuple(r) for r in m]
    nr, nc = len(a), len(a[0])
    size = min(nr, nc)
    dets_prev = 1
    out = []
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = math.gcd(g, bareiss_det(sub))
        if g == 0:
            break
        out.append(g // dets_prev)
        dets_prev = g
    out += [0] * (size - len(out))
    return tuple(out)


def split_lattice_via_kernels(lat, s):
    """split_lattice by left kernels: L ∩ V_j is the kernel of the other
    coordinates, and each piece is the Hermite form of its rows."""
    n = lat.ambient_dim
    p, p_den = _scale_to_int(s.v1_basis + s.v2_basis)
    d, y = _solve(_transpose(p, n), _transpose(lat.basis, n))
    coords = [[p_den * x for x in row] for row in zip(*y)]
    d1 = s.dim1

    def intersection(keep, kill):
        ker = left_kernel([row[kill] for row in coords])
        m, denom = _lowest_terms(mat_mul(ker, [row[keep] for row in coords]), d)
        return hnf(m), denom

    def projection(keep):
        m, denom = _lowest_terms([row[keep] for row in coords], d)
        return hnf(m), denom

    l1, l1_den = intersection(slice(0, d1), slice(d1, n))
    l2, l2_den = intersection(slice(d1, n), slice(0, d1))
    p1, p1_den = projection(slice(0, d1))
    p2, p2_den = projection(slice(d1, n))
    return SplitPieces(l1, l1_den, l2, l2_den, p1, p1_den, p2, p2_den,
                       *_lowest_terms(hnf(coords), abs(d)))


class TestHnfSnf:
    def test_snf_examples(self):
        assert snf([[2, 0], [0, 3]]) == (1, 6)
        assert snf([[1, 0], [0, 1]]) == (1, 1)
        assert snf([[0, 5], [5, 0]]) == (5, 5)

    def test_hnf_positive_pivots(self):
        h = hnf([[-2, 1], [4, 7]])
        assert all(next(x for x in row if x) > 0 for row in h)

    def test_hnf_canonical_for_row_span(self):
        rng = random.Random(1)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            h1 = hnf(rows)
            # shuffle and unimodularly mix the rows: same span, same HNF
            mixed = [
                [a + 2 * b for a, b in zip(rows[0], rows[1])],
                rows[1],
                [a - b for a, b in zip(rows[2], rows[0])],
            ]
            assert hnf(mixed) == h1

    def test_snf_against_minors_oracle(self):
        rng = random.Random(2)
        for _ in range(60):
            nr = rng.randint(1, 6)
            nc = rng.randint(1, 6)
            m = [[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)]
            assert snf(m) == snf_minors_oracle(m), m

    def test_snf_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(40):
            m = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(4)]
            vals = [d for d in snf(m) if d != 0]
            for a, b in zip(vals, vals[1:]):
                assert b % a == 0

    def test_snf_edge_cases(self):
        assert snf([]) == ()
        assert snf([[0, 0], [0, 0]]) == (0, 0)
        assert snf([[0, 0, 0]]) == (0,)

    @pytest.mark.parametrize("call", [snf, hnf])
    def test_non_integer_entry_rejected(self, call):
        """A float entry is an error, not truncated to an integer."""
        with pytest.raises(ValueError, match=r"^matrix entry must be an integer, not 2\.5$"):
            call([[2.5, 0], [0, 1]])
        assert call([[Fraction(4, 2), 0], [0, 1]]) == call([[2, 0], [0, 1]])

    def test_snf_against_pivot_search(self, monkeypatch):
        """snf equals the pivot-search oracle on square, upper-triangular,
        singular and rectangular matrices with n <= 16.  The triangular
        diagonals have square factors, so _smith takes several passes."""
        passes = []
        real = lattice._hnf_mod

        def counting(m, det):
            passes[-1] += 1
            return real(m, det)

        monkeypatch.setattr(lattice, "_hnf_mod", counting)
        rng = random.Random(22)
        for trial in range(160):
            n, kind = rng.randint(1, 16), trial % 4
            if kind == 0:
                m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            elif kind == 1:
                m = [[0] * i + [rng.choice((1, 2, 4, 8, 9, 12, 18, 25, 27, 36))]
                     + [rng.randint(-40, 40) for _ in range(n - i - 1)] for i in range(n)]
            elif kind == 2:
                m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[rng.randrange(n)])]
            else:
                nc = rng.randint(1, 16)
                m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(nc)]
                     for _ in range(n)]
            passes.append(0)
            assert snf(m) == snf_pivot_search(m), m
        assert max(passes[1::4]) > 1

    def test_bareiss_det(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[2]]) == 2
        rng = random.Random(4)
        for _ in range(30):
            m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            # cofactor expansion oracle
            def det(mm):
                if len(mm) == 1:
                    return mm[0][0]
                return sum(
                    (-1) ** j * mm[0][j]
                    * det([row[:j] + row[j + 1:] for row in mm[1:]])
                    for j in range(len(mm))
                )
            assert bareiss_det(m) == det(m)

    def test_left_kernel(self):
        k = left_kernel([[2, 0], [1, 0], [0, 1]])
        assert len(k) == 1
        y = k[0]
        assert [y[0] * 2 + y[1] * 1, y[2]] == [0, 0]

    def test_in_row_span(self):
        basis = [[1, 1], [0, 5]]
        assert in_row_span([2, 7], basis)
        assert not in_row_span([0, 3], basis)

    def test_hnf_with_transform_against_sympy(self):
        rng = random.Random(6)
        for trial in range(60):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
            if trial % 3 == 0 and nr > 1:
                # rank-deficient: a row is a combination of two others
                m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[-2])]
            h, u = hnf_with_transform(m)
            assert h == hnf(m)
            assert len(h) == sympy.Matrix(m).rank()
            assert abs(sympy.Matrix(u).det()) == 1
            um = sympy.Matrix(u) * sympy.Matrix(m)
            zeros = [[0] * nc for _ in range(nr - len(h))]
            assert um == sympy.Matrix([list(r) for r in h] + zeros)


def _unimodular(rng, n):
    """A random unimodular n x n matrix: a product of elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            f = rng.randint(-3, 3)
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


@st.composite
def _nonsingular(draw):
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([1, 2, 9, 10**6]))
    m = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(bareiss_det(m) != 0)
    return m


class TestHnfMod:
    @settings(max_examples=300, deadline=None)
    @given(_nonsingular(), st.integers(1, 6), st.booleans())
    def test_equals_hnf(self, m, k, negate):
        det = k * bareiss_det(m) * (-1 if negate else 1)
        assert _hnf_mod(m, det) == hnf(m)

    def test_one_by_one(self):
        for a in (-7, -1, 1, 12):
            for k in (1, 3):
                assert _hnf_mod([[a]], k * a) == hnf([[a]]) == ((abs(a),),)

    def test_unimodular(self):
        rng = random.Random(10)
        for n in range(1, 7):
            m = _unimodular(rng, n)
            det = bareiss_det(m)
            assert det in (1, -1)
            assert _hnf_mod(m, det) == hnf(m) == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n))

    def test_large_against_hnf(self):
        """n = 7..16: sparse rows (zero pivot-column entries), rows scaled by
        4, 9 or 25 (square factors in det, so pivots g > 1 divide R), a
        multiple of det, and unimodular matrices."""
        rng = random.Random(21)
        for trial in range(40):
            n = 7 + trial % 10
            if trial % 4 == 3:
                m = _unimodular(rng, n)
            else:
                while True:
                    m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                         for _ in range(n)]
                    if bareiss_det(m):
                        break
                for i in rng.sample(range(n), rng.randint(1, 3)):
                    m[i] = [rng.choice((4, 9, 25)) * x for x in m[i]]
            det = rng.choice((1, -1, 2, 6)) * bareiss_det(m)
            assert _hnf_mod(m, det) == hnf(m)

    def test_zero_pivot_column(self):
        # every entry of the first column is a multiple of det: the pivot is det
        m = [[6, 1], [0, 1]]
        assert _hnf_mod(m, 6) == hnf(m) == ((6, 0), (0, 1))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            _hnf_mod([[1, 2], [2, 4]], 0)


class TestSolve:
    def test_against_sympy(self):
        rng = random.Random(7)
        for _ in range(60):
            n, k = rng.randint(1, 6), rng.randint(1, 4)
            a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            if sympy.Matrix(a).det() == 0:
                continue
            b = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(n)]
            d, y = _solve(a, b)
            assert d != 0
            assert sympy.Matrix(y) / d == sympy.Matrix(a).solve(sympy.Matrix(b))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            _solve([[1, 2], [2, 4]], [[1], [0]])
        with pytest.raises(ValueError, match="singular"):
            _solve([[0, 0, 1], [0, 1, 0], [0, 3, 0]], [[1], [1], [1]])

    def test_identity_block(self):
        # [I | B]: every row update is skipped, and Y is B itself
        rng = random.Random(13)
        for n in range(0, 9):
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            b = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(n)]
            assert _solve(ident, b) == _solve_every_row(ident, b) == (1, b)

    def test_zeros_in_pivot_columns(self):
        rng = random.Random(14)
        cases = 0
        while cases < 150:
            n, k = rng.randint(1, 7), rng.randint(1, 3)
            a = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)]
                 for _ in range(n)]
            if bareiss_det(a) == 0:
                continue
            b = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(n)]
            d, y = _solve(a, b)
            assert (d, y) == _solve_every_row(a, b)
            assert abs(d) == abs(bareiss_det(a))
            assert [[Fraction(x, d) for x in row] for row in y] == _fraction_solve(a, b)
            cases += 1


def _solve_every_row(a, b):
    """exact._solve with every row updated at every step, the skip left out."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pk * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = pk
    return prev, [row[n:] for row in rows]


def _fraction_solve(a, b):
    """A^-1 * B by Gauss-Jordan over Fraction."""
    n = len(a)
    rows = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a, b)]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def test_charpoly_against_sympy():
    rng = random.Random(8)
    x = sympy.symbols("x")
    for _ in range(40):
        n = rng.randint(0, 5)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        want = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator)
                                   for row in m for v in row]).charpoly(x)
        got = _charpoly(m)
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == \
            want.all_coeffs()[::-1]
        # an integer matrix gives int coefficients
        assert all(type(c) is int for c in _charpoly([[int(c) for c in row] for row in m]))


def _poly_from_factors(factors):
    p = [1]
    for f in factors:
        p = [sum(p[j] * f[i - j] for j in range(len(p)) if 0 <= i - j < len(f))
             for i in range(len(p) + len(f) - 1)]
    return p


def test_integer_roots_against_sympy():
    # products of repeated linear factors, zero roots, linear factors with a
    # rational non-integer root, and quadratics with irrational, complex or
    # integer roots
    rng = random.Random(25)
    x = sympy.symbols("x")
    for _ in range(300):
        factors = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.5:
                f = [-rng.randint(-30, 30), 1]
            elif kind < 0.6:
                f = [rng.randint(-9, 9), rng.randint(2, 5)]
            else:
                f = [rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([1, -1, 2])]
            factors += [f] * rng.choice([1, 1, 1, 2, 3])
        p = [rng.choice([1, -1, 3]) * c for c in _poly_from_factors(factors)]
        want = sorted(int(r) for r in sympy.Poly(p[::-1], x).ground_roots() if r.is_integer)
        assert _integer_roots(p) == want, p


def test_integer_roots_of_large_linear_factors():
    rng = random.Random(18)
    for _ in range(60):
        ns = [rng.randint(-10**18, 10**18) for _ in range(rng.randint(1, 5))]
        ns += rng.sample(ns, rng.randint(0, len(ns)))  # repeated roots
        extra = [rng.choice([[2, 0, 1], [-3, 0, 1], [1, 1, 1]])] * rng.randint(0, 2)
        p = _poly_from_factors([[-n, 1] for n in ns] + extra)
        assert _integer_roots(p) == sorted(set(ns))


def test_integer_roots_edge_cases():
    assert _integer_roots([1]) == []
    assert _integer_roots([0, 0, 1]) == [0]  # x^2: the chain ends in 2x, not x
    assert _integer_roots([0, 0, 0, 4]) == [0]
    assert _integer_roots([-2, 0, 1]) == []
    assert _integer_roots([1, 0, 1]) == []
    assert _integer_roots([6, 1, -1]) == [-2, 3]
    assert _integer_roots([1, -2]) == []


def test_integer_roots_time_grows_with_digits():
    # the roots n, n + 1 of x^2 - (2n+1)x + n(n+1): trying the divisors of
    # the constant term up to its square root took 49 s at n = 10^9
    n = 10**9
    start = time.perf_counter()
    assert _integer_roots([n * (n + 1), -(2 * n + 1), 1]) == [n, n + 1]
    assert time.perf_counter() - start < 0.5


def test_quotient_invariants_rejects_non_sublattice():
    # (1, 0)/2 is not in Z^2
    with pytest.raises(ValueError, match="sublattice is not contained in ambient lattice"):
        _quotient_invariants(((1, 0), (0, 1)), 2, ((1, 0), (0, 1)), 1)
    # (1, 1) is not in the lattice spanned by (2, 0), (0, 1)
    with pytest.raises(ValueError, match="sublattice is not contained in ambient lattice"):
        _quotient_invariants(((1, 1), (0, 2)), 1, ((2, 0), (0, 1)), 1)
    assert _quotient_invariants(((2, 0), (0, 3)), 1, ((1, 0), (0, 1)), 1) == (1, 6)


def test_quotient_invariants_against_pivot_search():
    """The three quotients of split_lattice's pieces, as congruence_modules
    forms them, against the pivot-search Smith form of the relation matrix."""
    rng = random.Random(23)
    for trial in range(40):
        n = rng.randint(2, 12)
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if bareiss_det(rows):
                break
        for i in rng.sample(range(n), rng.randint(0, 2)):
            rows[i] = [rng.choice((4, 9, 25)) * x for x in rows[i]]
        lat = Lattice(tuple(map(tuple, rows)), n)
        d1 = rng.randint(1, n - 1)
        s = coordinate_split(n, d1) if trial % 2 else _oblique_split(rng, n, d1)
        pc = split_lattice(lat, s)
        den = math.lcm(pc.l1_denom, pc.l2_denom)
        c1, c2 = den // pc.l1_denom, den // pc.l2_denom
        mid = (tuple(tuple(c1 * x for x in row) + (0,) * s.dim2 for row in pc.l1)
               + tuple((0,) * s.dim1 + tuple(c2 * x for x in row) for row in pc.l2))
        for q in ((pc.l1, pc.l1_denom, pc.l1_proj, pc.l1_proj_denom),
                  (mid, den, pc.basis, pc.basis_denom),
                  (pc.l2, pc.l2_denom, pc.l2_proj, pc.l2_proj_denom)):
            assert _quotient_invariants(*q) == snf_pivot_search(relation_matrix_by_solve(*q))


def test_quotient_invariants_rejects_non_triangular():
    # (1, 0), (1, 1) spans Z^2 but is not upper triangular, as sub or as amb:
    # the diagonal product of the relation matrix is then no determinant
    for sub, amb in ((((1, 0), (1, 1)), ((1, 0), (0, 1))),
                     (((1, 0), (0, 1)), ((1, 0), (1, 1)))):
        with pytest.raises(ValueError, match="matrix is not upper triangular"):
            _quotient_invariants(sub, 1, amb, 1)


class TestRelationMatrix:
    """Substitution against a Hermite basis agrees with the Bareiss solve."""

    @settings(max_examples=200, deadline=None)
    @given(_nonsingular(), st.data())
    def test_against_solve(self, m, data):
        n = len(m)
        amb = hnf(m)
        entries = st.integers(-6, 6)
        x = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=n))
        noise = data.draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1)), min_size=n,
                                            max_size=n), min_size=len(x), max_size=len(x)))
        sub_den, amb_den = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        # sub/sub_den = X * amb/amb_den when the noise is 0
        sub = [[sub_den * (v + e * amb_den) for v, e in zip(row, err)]
               for row, err in zip(mat_mul(x, amb), noise)]
        try:
            want = relation_matrix_by_solve(sub, sub_den * amb_den, amb, amb_den)
        except ValueError:
            with pytest.raises(ValueError, match="not contained"):
                _relation_matrix(sub, sub_den * amb_den, amb, amb_den)
        else:
            assert _relation_matrix(sub, sub_den * amb_den, amb, amb_den) == want
            if not any(map(any, noise)):
                assert want == tuple(map(tuple, x))


class TestSplitLattice:
    def test_identity_lattice(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        s = coordinate_split(2, 1)
        p = split_lattice(lat, s)
        assert p.l1 == ((1,),) and p.l1_proj == ((1,),)

    def test_glued_lattice(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        s = coordinate_split(2, 1)
        p = split_lattice(lat, s)
        assert p.l1 == ((5,),) and p.l1_denom == 1
        assert p.l1_proj == ((1,),)

    def test_already_split(self):
        lat = Lattice(((2, 0), (0, 3)), 2)
        s = coordinate_split(2, 1)
        p = split_lattice(lat, s)
        assert p.l1 == ((2,),) and p.l1_proj == ((2,),)

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="basis rows are linearly dependent"):
            Lattice(((1, 2, 3), (2, 4, 6)), 3)
        with pytest.raises(ValueError, match="basis rows are linearly dependent"):
            Lattice(((1, 0), (0, 1), (1, 1)), 2)
        assert Lattice(((1, 2, 3), (0, 0, 1)), 3).rank == 2

    def test_non_integer_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^lattice entry must be an integer, not 1\.9$"):
            Lattice(((1.9, 1), (0, 5)), 2)
        assert Lattice(((Fraction(2), 1), (0, 5)), 2).basis == ((2, 1), (0, 5))

    def test_rejects_rank_deficient(self):
        lat = Lattice(((1, 1, 0),), 3)
        with pytest.raises(DegenerateSplit):
            split_lattice(lat, coordinate_split(3, 1))

    def test_matches_left_kernel_route(self):
        rng = random.Random(11)
        cases = 0
        while cases < 120:
            n = rng.randint(1, 6)
            rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
            if bareiss_det(rows) == 0:
                continue
            lat = Lattice(tuple(tuple(r) for r in rows), n)
            d1 = rng.randint(0, n)
            for s in (coordinate_split(n, d1), _oblique_split(rng, n, d1)):
                assert split_lattice(lat, s) == split_lattice_via_kernels(lat, s)
            cases += 1

    def test_second_form_from_first_matches_coords_route(self):
        rng = random.Random(22)
        for trial in range(60):
            n = 2 + trial % 11
            while True:
                rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
                if bareiss_det(rows):
                    break
            lat = Lattice(tuple(tuple(r) for r in rows), n)
            d1 = rng.randint(0, n)
            for s in (coordinate_split(n, d1), _oblique_split(rng, n, d1)):
                assert split_lattice(lat, s) == split_lattice_from_coords(lat, s)

    def test_oblique_split(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        s = Split(((Fraction(1), Fraction(1)),), ((Fraction(1), Fraction(-1)),))
        cm = congruence_module(lat, s, 2)
        assert cm.invariant_factors == (2,)


class TestCongruenceModule:
    def test_trivial(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        cm = congruence_module(lat, coordinate_split(2, 1), 5)
        assert cm.is_trivial

    def test_glued(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        cm = congruence_module(lat, coordinate_split(2, 1), 5)
        assert cm.invariant_factors == (5,)
        assert cm.three_way == ((5,), (5,), (5,))

    def test_four_dimensional(self):
        lat = Lattice(((1, 0, 1, 0), (0, 1, 0, 25), (0, 0, 5, 0), (0, 0, 0, 5)), 4)
        cm = congruence_module(lat, coordinate_split(4, 2), 5)
        assert cm.three_way[0] == cm.three_way[1] == cm.three_way[2]
        assert cm.invariant_factors == (5,)

    def test_p_locality(self):
        lat = Lattice(((1, 1), (0, 6)), 2)
        assert congruence_module(lat, coordinate_split(2, 1), 2).invariant_factors == (2,)
        assert congruence_module(lat, coordinate_split(2, 1), 3).invariant_factors == (3,)
        assert congruence_module(lat, coordinate_split(2, 1), 5).is_trivial

    def test_random_fusion_and_index_product(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(2, 5)
            d1 = rng.randint(1, n - 1)
            while True:
                rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
                if bareiss_det(rows) != 0:
                    break
            lat = Lattice(tuple(tuple(r) for r in rows), n)
            for s in (coordinate_split(n, d1), _oblique_split(rng, n, d1)):
                for p in (2, 3, 5, 7):
                    cm = congruence_module(lat, s, p)
                    assert cm.three_way[0] == cm.three_way[1] == cm.three_way[2]
                inner, outer = split_indices(lat, s)
                full = 1
                for f in _quotient_all_primes(lat, s):
                    full *= f
                assert inner * outer == full * full

    def test_modules_for_several_primes(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(2, 5)
            while True:
                rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
                if bareiss_det(rows) != 0:
                    break
            lat = Lattice(tuple(tuple(r) for r in rows), n)
            s = _oblique_split(rng, n, rng.randint(1, n - 1))
            primes = (2, 3, 5, 7, 3)
            assert congruence_modules(lat, s, primes) == \
                tuple(congruence_module(lat, s, p) for p in primes)
        assert congruence_modules(lat, s, ()) == ()

    def test_three_way_check_runs_for_every_prime(self, monkeypatch):
        lat = Lattice(((1, 1), (0, 30)), 2)
        s = coordinate_split(2, 1)
        real = lattice._quotient_invariants

        def middle_off_at_five(sub, sub_den, amb, amb_den):
            # the middle quotient L / (L1 ⊕ L2) is (30,): drop its 5-part
            return (6,) if amb == lat.basis else real(sub, sub_den, amb, amb_den)

        monkeypatch.setattr(lattice, "_quotient_invariants", middle_off_at_five)
        assert [cm.invariant_factors for cm in congruence_modules(lat, s, (2, 3))] \
            == [(2,), (3,)]
        with pytest.raises(FusionMismatch, match="p=5"):
            congruence_modules(lat, s, (2, 3, 5))
        with pytest.raises(FusionMismatch, match="p=5"):
            congruence_module(lat, s, 5)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_three_way_against_bareiss_solve(self, data):
        n = data.draw(st.integers(1, 8))
        bound = data.draw(st.sampled_from([1, 3, 20]))
        rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n,
                                           max_size=n), min_size=n, max_size=n))
        assume(bareiss_det(rows) != 0)
        lat = Lattice(tuple(map(tuple, rows)), n)
        rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
        v = data.draw(st.lists(st.lists(rational, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        d1 = data.draw(st.integers(0, n))
        try:
            s = Split(tuple(map(tuple, v[:d1])), tuple(map(tuple, v[d1:])))
        except DegenerateSplit:
            assume(False)
        primes = (2, 3, 5, 7)
        assert [cm.three_way for cm in congruence_modules(lat, s, primes)] == \
            [three_way_by_solve(lat, s, p) for p in primes]

    def test_large_lattice_against_determinant_index(self):
        # 24 x 24 lattice whose Smith form took seconds on unreduced integers
        rng = random.Random(5)
        rows = [[rng.randint(-100, 100) for _ in range(24)] for _ in range(24)]
        lat = Lattice(tuple(tuple(r) for r in rows), 24)
        s = coordinate_split(24, 12)
        t0 = time.perf_counter()
        cm = congruence_module(lat, s, 2)
        assert time.perf_counter() - t0 < 2.0
        pieces = split_lattice(lat, s)
        vol1 = math.prod(row[i] for i, row in enumerate(pieces.l1))
        vol2 = math.prod(row[i] for i, row in enumerate(pieces.l2))
        assert pieces.l1_denom == pieces.l2_denom == 1
        index, rem = divmod(vol1 * vol2, abs(bareiss_det(rows)))
        assert rem == 0
        assert cm.three_way[0] == cm.three_way[1] == cm.three_way[2]
        assert cm.order == _p_part(index, 2)

    def test_order_squared_identity(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        s = coordinate_split(2, 1)
        inner, outer = split_indices(lat, s)
        cm = congruence_module(lat, s, 5)
        assert inner * outer == cm.order ** 2


def _oblique_split(rng, n, d1):
    """A split of Q^n along random rational subspaces."""
    while True:
        rows = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
                for _ in range(n)]
        try:
            return Split(tuple(rows[:d1]), tuple(rows[d1:]))
        except DegenerateSplit:
            continue


def _quotient_all_primes(lat, s):
    """Invariant factors of L^1/L_1 over all primes (via the middle quotient)."""
    pieces = split_lattice(lat, s)
    return _quotient_invariants(pieces.l1, pieces.l1_denom,
                                pieces.l1_proj, pieces.l1_proj_denom)


@pytest.mark.parametrize("p, message", [
    (1, "p = 1 is not prime"), (0, "p = 0 is not prime"), (4, "p = 4 is not prime"),
    (-3, "p = -3 is not prime"), (True, "p must be an integer, not True"),
    (2.0, "p must be an integer, not 2.0")])
@pytest.mark.parametrize("call", [
    lambda lat, s, p: congruence_module(lat, s, p),
    lambda lat, s, p: congruence_modules(lat, s, (5, p)),
    lambda lat, s, p: find_congruences([((2, 0), (0, 7))], lat, s, p),
    lambda lat, s, p: lattice._find_congruences([((2, 0), (0, 7))], lat, s, (p, 5)),
], ids=["congruence_module", "congruence_modules", "find_congruences", "_find_congruences"])
def test_non_prime_p_rejected(call, p, message):
    """A p that is not a prime integer raises before any lattice work (p = 1
    used to loop forever in _p_part)."""
    lat = Lattice(((2, 1), (0, 3)), 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(lat, coordinate_split(2, 1), p)


class TestDiscPairing:
    def test_two_by_two(self):
        res = disc_pairing([[0, 3], [-3, 0]], 1)
        assert res.determinant == 9

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            disc_pairing([[1, 0], [0, 1]], 1)

    def test_block_antidiagonal(self):
        a, b = Fraction(2), Fraction(7)
        size = 4
        gram = [[Fraction(0)] * size for _ in range(size)]
        # subsets of {0,1}: pairs ({} , {0,1}) and ({0}, {1})
        gram[0][3], gram[3][0] = a, -a
        gram[1][2], gram[2][1] = b, -b
        res = disc_pairing(gram, 2)
        assert res.determinant == a * a * b * b


class TestFindCongruences:
    def test_congruent_pair(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        s = coordinate_split(2, 1)
        res = find_congruences([((2, 0), (0, 7))], lat, s, 5)
        assert [(e1.values, e2.values) for e1, e2 in res.pairs] == [((2,), (7,))]
        assert not res.module.is_trivial

    def test_no_pair(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        res = find_congruences([((2, 0), (0, 3))], lat, coordinate_split(2, 1), 5)
        assert res.pairs == ()

    def test_pair_mod_seven(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        res = find_congruences([((2, 0), (0, 9))], lat, coordinate_split(2, 1), 7)
        assert [(e1.values, e2.values) for e1, e2 in res.pairs] == [((2,), (9,))]

    def test_not_commuting(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        with pytest.raises(NotCommuting):
            find_congruences([((1, 1), (0, 1)), ((1, 0), (1, 1))], lat,
                             coordinate_split(2, 1), 5)

    @pytest.mark.parametrize("op", [((1,),), ((1, 0),), ((1, 0), (0, 1), (0, 0)),
                                    ((1, 0), (0, 1, 0))])
    def test_operator_shape(self, op):
        lat = Lattice(((1, 0), (0, 5)), 2)
        with pytest.raises(ValueError, match="operator is not 2x2"):
            find_congruences([((1, 0), (0, 1)), op], lat, coordinate_split(2, 1), 5)

    @pytest.mark.parametrize("entry", [1.5, True])
    def test_operator_entry_is_an_integer(self, entry):
        lat = Lattice(((1, 1), (0, 5)), 2)
        with pytest.raises(ValueError,
                           match=f"^operator entry must be an integer, not {entry!r}$"):
            find_congruences([[[entry, 0], [0, 1]]], lat, coordinate_split(2, 1), 5)

    def test_not_stable(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        with pytest.raises(NotStableOrSplit):
            find_congruences([((1, 0), (1, 1))], lat, coordinate_split(2, 1), 5)

    def test_stability_check_makes_one_hermite_form(self, monkeypatch):
        # Z^6 glued along e0 + e3 and 5 e3; two commuting diagonal operators
        rows = [[int(i == j) for j in range(6)] for i in range(6)]
        rows[0][3], rows[3][3] = 1, 5
        lat = Lattice(tuple(tuple(r) for r in rows), 6)
        ops = [tuple(tuple(v if i == j else 0 for j in range(6)) for i, v in enumerate(vals))
               for vals in ((2, 1, 1, 7, 1, 1), (1, 3, 1, 1, 3, 1))]
        real = lattice.hnf
        forms = []

        def counting_hnf(m):
            forms.append(m)
            return real(m)

        monkeypatch.setattr(lattice, "hnf", counting_hnf)
        res = find_congruences(ops, lat, coordinate_split(6, 3), 5)
        assert ((2, 1), (7, 1)) in [(e1.values, e2.values) for e1, e2 in res.pairs]
        assert sum(1 for m in forms if m == lat.basis) == 1

    def test_eigenvalues_near_a_billion(self):
        n = 10**9
        lat = Lattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
        op = ((n, 1, 0), (0, n + 1, 0), (0, 0, n + 5))
        start = time.perf_counter()
        res = find_congruences([op], lat, coordinate_split(3, 2), 5)
        assert time.perf_counter() - start < 1.0
        assert [e.values for e in res.side1] == [(n,), (n + 1,)]
        assert [(e1.values, e2.values) for e1, e2 in res.pairs] == [((n,), (n + 5,))]

    def test_against_restriction_oracle(self):
        # the systems in order, extension_needed, the pairs and the module;
        # an unstable case raises the same NotStable message
        rng = random.Random(2025)
        compared = unstable = 0
        for _ in range(480):
            ops, lat, s, p = _block_case(rng)
            try:
                want = find_congruences_by_restriction(ops, lat, s, p)
            except NotStable as exc:
                unstable += 1
                with pytest.raises(NotStable, match=f"^{exc}$"):
                    find_congruences(ops, lat, s, p)
                continue
            assert find_congruences(ops, lat, s, p) == want
            compared += 1
        assert compared >= 400 and unstable

    def test_extension_needed_counts(self):
        # rotation-like operator with irrational eigenvalues on V1+V2... use
        # a 2x2 block with characteristic polynomial x^2 - 2 on one side
        lat = Lattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
        s = coordinate_split(3, 2)
        op = ((0, 2, 0), (1, 0, 0), (0, 0, 3))
        res = find_congruences([op], lat, s, 5)
        assert res.extension_needed1 == 2
        assert res.side2[0].values == (3,)


NotStableOrSplit = (NotStable, DegenerateSplit)


def _block_case(rng):
    """(op, op^2), a lattice and a split of Q^n that op preserves, and a prime.

    op = P^-1 D P for a random unimodular P and D = diag(A1, A2), each A_j
    block upper triangular: integer diagonal entries with repeats and values
    congruent mod p, and 2x2 companion blocks, whose eigenvalues may be
    integers, irrational or complex.  V_j is spanned by P's rows of A_j,
    scaled by rationals, and L is the Z[D]-module generated by a glued
    lattice, moved by P.  One case in eight perturbs op by one entry, which
    breaks the stability of L or of a V_j unless op stays block triangular.
    """
    d1, d2, p = rng.randint(1, 3), rng.randint(1, 3), rng.choice([2, 3, 5, 7])
    n = d1 + d2
    pool = [rng.randint(-6, 6) for _ in range(3)]
    d = [[0] * n for _ in range(n)]
    for lo, hi in ((0, d1), (d1, n)):
        i = lo
        while i < hi:
            if i + 1 < hi and rng.random() < 0.3:
                d[i][i + 1] = 1
                d[i + 1][i], d[i + 1][i + 1] = rng.randint(-3, 3), rng.randint(-3, 3)
                i += 2
            else:
                d[i][i] = rng.choice(pool) + p * rng.randint(-2, 2)
                i += 1
        for i in range(lo, hi):
            for j in range(i + 2 if i + 1 < hi and d[i][i + 1] == 1 else i + 1, hi):
                d[i][j] = rng.choice([0, 0, 0, 1, -1, 2])
    pm = _unimodular(rng, n)
    det, inv = _solve(pm, [[int(i == j) for j in range(n)] for i in range(n)])
    op = [list(r) for r in mat_mul([[det * x for x in r] for r in inv], mat_mul(d, pm))]
    if rng.random() < 0.125:
        op[rng.randrange(n)][rng.randrange(n)] += rng.choice([-1, 1])
    op = tuple(map(tuple, op))
    glue = [[p if i == j and rng.random() < 0.5 else int(i == j) if i >= j else rng.randint(0, 2)
             for j in range(n)] for i in range(n)]
    rows, power = [], glue
    for _ in range(n):
        rows += power
        power = [list(r) for r in mat_mul(power, d)]
    lat = Lattice(mat_mul(hnf(rows), pm), n)
    scaled = [tuple(Fraction(x, k) for x in row)
              for row, k in zip(pm, (rng.choice([1, 1, 2, 3]) for _ in range(n)))]
    return [op, mat_mul(op, op)], lat, Split(scaled[:d1], scaled[d1:]), p


class TestLocalizedModuleOracle:
    def test_nonzero_when_glued(self):
        lat = Lattice(((1, 1), (0, 5)), 2)
        s = coordinate_split(2, 1)
        assert localized_module_nonzero([((2, 0), (0, 7))], lat, s, 5, (2,))

    def test_zero_when_split(self):
        lat = Lattice(((1, 0), (0, 1)), 2)
        s = coordinate_split(2, 1)
        assert not localized_module_nonzero([((2, 0), (0, 7))], lat, s, 5, (2,))

    def test_wrong_eigensystem_localizes_to_zero(self):
        # module is Z/5 but supported at theta = 2 mod 5; theta = 1 sees nothing
        lat = Lattice(((1, 1), (0, 5)), 2)
        s = coordinate_split(2, 1)
        assert not localized_module_nonzero([((2, 0), (0, 7))], lat, s, 5, (1,))
