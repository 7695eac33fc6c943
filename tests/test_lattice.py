import math
import random
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
    in_row_span,
    localized_module_nonzero,
    relation_matrix_by_solve,
    split_indices,
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


def test_quotient_invariants_rejects_non_sublattice():
    # (1, 0)/2 is not in Z^2
    with pytest.raises(ValueError, match="sublattice is not contained in ambient lattice"):
        _quotient_invariants(((1, 0), (0, 1)), 2, ((1, 0), (0, 1)), 1)
    # (1, 1) is not in the lattice spanned by (2, 0), (0, 1)
    with pytest.raises(ValueError, match="sublattice is not contained in ambient lattice"):
        _quotient_invariants(((1, 1), (0, 2)), 1, ((2, 0), (0, 1)), 1)
    assert _quotient_invariants(((2, 0), (0, 3)), 1, ((1, 0), (0, 1)), 1) == (1, 6)


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
