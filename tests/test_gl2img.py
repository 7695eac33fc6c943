import itertools
import random
from collections import Counter

import pytest
import sympy

from gl2img_oracles import (
    derived_subgroup_all_commutators,
    is_projectively_dihedral,
    li_check_search,
)
from hmfcert import gl2img
from hmfcert.gl2img import (
    CapExceeded,
    Fq,
    FqMatrixGroup,
    Inconsistent,
    SizeOverflow,
    TameChar,
    _derived_subgroup,
    _poly_is_irreducible,
    classify_projective_image,
    li_check,
    mat_det2,
    mat_id2,
    mat_inv2,
    mat_mul2,
    pgl2_order,
    psl2_order,
    recover_from_subset_sums,
    tame_char_order,
    tensor_compose,
    tensor_induce,
    tensor_matmul,
)
from hmfcert.lattice import bareiss_det
from hmfcert.weights import all_subset_sums

# frozen subgroup fixtures: (2,3,n)-generated exceptional groups
A4_OVER_F5 = ((0, 1, 1, 0), (1, 1, 2, 3))
S4_OVER_F7 = ((0, 1, 3, 0), (1, 0, 2, 4))
A5_OVER_F11 = ((0, 1, 2, 0), (0, 1, 6, 4))
A5_OVER_F9 = ((0, 1, 1, 0), (0, 1, 1, 3))  # order 60 divisible by p = 3

SL2_GENS = ((1, 1, 0, 1), (1, 0, 1, 1))
SL2_F11_CONJUGATE = ((5, 4, 7, 8), (9, 6, 4, 4))


class TestFq:
    def test_prime_field(self):
        F = Fq(7)
        assert F.add(5, 4) == 2 and F.mul(3, 5) == 1
        assert F.inv(3) == 5

    def test_extension_field(self):
        F = Fq(3, 2)
        assert F.q == 9
        for a in range(1, 9):
            assert F.mul(a, F.inv(a)) == 1
        # Frobenius fixes exactly the prime field
        assert sum(1 for a in range(9) if F.in_subfield(a, 1)) == 3

    def test_q_cap(self):
        with pytest.raises(ValueError):
            Fq(2, 7)  # 128 > 121

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            Fq(6)

    @pytest.mark.parametrize("r", [0, -1])
    def test_degree_below_one_rejected(self, r):
        with pytest.raises(ValueError, match=f"^r = {r} must be at least 1$"):
            Fq(5, r)

    @pytest.mark.parametrize("p", [p for p in range(2, 114) if sympy.isprime(p)])
    def test_prime_field_tables_are_arithmetic_mod_p(self, p):
        # r = 1 takes the table path of every q; x - 1 gives F_p itself too
        for F in (Fq(p), Fq(p, 1, [-1, 1])):
            assert F.add_table == [[(a + b) % p for b in range(p)] for a in range(p)]
            assert F.mul_table == [[a * b % p for b in range(p)] for a in range(p)]
            assert F.neg_table == [-a % p for a in range(p)]
            assert F.inv_table == [None] + [pow(a, -1, p) for a in range(1, p)]

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 2), (11, 2)])
    def test_extension_add_and_neg_are_digitwise(self, p, r):
        F = Fq(p, r)

        def digits(e):
            return [(e // p**i) % p for i in range(r)]

        for a in range(F.q):
            assert digits(F.neg(a)) == [-c % p for c in digits(a)]
            for b in range(F.q):
                assert digits(F.add(a, b)) == [(x + y) % p for x, y in zip(digits(a), digits(b))]

    def test_subfield_size(self):
        F = Fq(3, 2)
        assert F.subfield_size([0, 1, 2]) == 3
        gen = next(a for a in range(9) if not F.in_subfield(a, 1))
        assert F.subfield_size([gen]) == 9


# the default moduli (smallest primitive by encoding), pinned from the
# table-building code before it moved onto the shared polynomial helpers
FQ_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1), (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1), (5, 2): (2, 1, 1), (7, 2): (3, 1, 1),
    (11, 2): (7, 1, 1),
}


class TestFqAgainstSympy:
    @pytest.mark.parametrize("p,r", sorted(FQ_MODULI))
    def test_modulus_and_mul_table(self, p, r):
        F = Fq(p, r)
        assert F.modulus == FQ_MODULI[p, r]
        x = sympy.symbols("x")
        mod = sympy.Poly(list(F.modulus)[::-1], x, modulus=p)
        polys = [sympy.Poly([(a // p**i) % p for i in range(r)][::-1], x, modulus=p)
                 for a in range(F.q)]
        rng = random.Random(p * 100 + r)
        for a, b in (divmod(n, F.q) for n in rng.sample(range(F.q**2), min(F.q**2, 1000))):
            coeffs = (polys[a] * polys[b]).rem(mod).all_coeffs()[::-1]
            assert F.mul_table[a][b] == sum(int(c) % p * p**i for i, c in enumerate(coeffs))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_irreducibility(self, p):
        x = sympy.symbols("x")
        for deg in (2, 3, 4):
            for tail in itertools.product(range(p), repeat=deg):
                f = list(tail) + [1]
                want = sympy.Poly(f[::-1], x, modulus=p).is_irreducible
                assert _poly_is_irreducible(f, p) == want, f


class TestClosure:
    def test_empty(self):
        F = Fq(3)
        assert FqMatrixGroup(F, ()).closure() == {mat_id2(F)}

    def test_sl2_f3(self):
        F = Fq(3)
        assert len(FqMatrixGroup(F, SL2_GENS).closure()) == 24

    def test_split_torus(self):
        F = Fq(5)
        g = FqMatrixGroup(F, ((2, 0, 0, 1), (1, 0, 0, 2)))
        assert len(g.closure()) == 16

    def test_cap_exceeded(self):
        F = Fq(7)
        with pytest.raises(CapExceeded):
            FqMatrixGroup(F, SL2_GENS).closure(cap=100)

    def test_cap_applies_to_cached_closure(self):
        g = FqMatrixGroup(Fq(7), SL2_GENS)
        assert len(g.closure()) == 336
        with pytest.raises(CapExceeded):
            g.closure(cap=100)
        assert len(g.closure(cap=336)) == 336

    def test_singular_generator_rejected(self):
        F = Fq(5)
        with pytest.raises(ValueError):
            FqMatrixGroup(F, ((1, 1, 1, 1),))


class TestClassification:
    @pytest.mark.parametrize("p,r,expected_kind,expected_q", [
        (3, 1, "PSL2", 3),
        (5, 1, "PSL2", 5),
        (7, 1, "PSL2", 7),
        (3, 2, "PSL2", 9),
    ])
    def test_sl2_table(self, p, r, expected_kind, expected_q):
        F = Fq(p, r)
        c = classify_projective_image(FqMatrixGroup(F, SL2_GENS))
        # SL2 generators over the prime field generate SL2(F_p)
        assert c.kind == expected_kind
        if r == 2:
            # unipotents over F_3 only generate SL2(3) inside SL2(9)
            assert c.parameter == 3
        else:
            assert c.parameter == expected_q
            assert c.projective_order == psl2_order(expected_q)

    def test_full_sl2_f9(self):
        F = Fq(3, 2)
        gen = next(a for a in range(9) if not F.in_subfield(a, 1))
        g = FqMatrixGroup(F, ((1, 1, 0, 1), (1, 0, gen, 1)))
        c = classify_projective_image(g)
        assert (c.kind, c.parameter) == ("PSL2", 9)
        assert c.projective_order == psl2_order(9) == 360

    def test_pgl2_f3(self):
        F = Fq(3)
        g = FqMatrixGroup(F, SL2_GENS + ((2, 0, 0, 1),))
        c = classify_projective_image(g)
        assert (c.kind, c.parameter) == ("PGL2", 3)
        assert c.projective_order == pgl2_order(3) == 24

    def test_dihedral_normalizer(self):
        F = Fq(5)
        g = FqMatrixGroup(F, ((2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)))
        c = classify_projective_image(g)
        assert (c.kind, c.parameter) == ("Dihedral", 4)
        assert c.projective_order == 8

    def test_scalars_reducible(self):
        F = Fq(5)
        c = classify_projective_image(FqMatrixGroup(F, ((2, 0, 0, 2),)))
        assert c.kind == "Reducible"

    def test_borel_reducible(self):
        F = Fq(7)
        c = classify_projective_image(FqMatrixGroup(F, ((1, 1, 0, 1), (3, 0, 0, 1))))
        assert c.kind == "Reducible"

    def test_nonsplit_torus_reducible(self):
        # cyclic group irreducible over F_q but split over F_q^2
        F = Fq(5)
        c = classify_projective_image(FqMatrixGroup(F, ((0, 1, 2, 0),)))
        assert c.kind == "Reducible"

    def test_a4(self):
        c = classify_projective_image(FqMatrixGroup(Fq(5), A4_OVER_F5))
        assert c.kind == "A4" and c.projective_order == 12

    def test_s4(self):
        c = classify_projective_image(FqMatrixGroup(Fq(7), S4_OVER_F7))
        assert c.kind == "S4" and c.projective_order == 24

    def test_a5(self):
        c = classify_projective_image(FqMatrixGroup(Fq(11), A5_OVER_F11))
        assert c.kind == "A5" and c.projective_order == 60

    def test_a5_in_characteristic_three(self):
        # order divisible by p without being a subfield group: the
        # exceptional fallback of the p | order branch must catch it
        c = classify_projective_image(FqMatrixGroup(Fq(3, 2), A5_OVER_F9))
        assert c.kind == "A5" and c.projective_order == 60

    def test_klein_four_is_dihedral_2(self):
        F = Fq(5)
        g = FqMatrixGroup(F, ((0, 1, 1, 0), (1, 0, 0, 4)))
        c = classify_projective_image(g)
        assert (c.kind, c.parameter) == ("Dihedral", 2)

    def test_dihedral_against_normality_oracle(self):
        # seeded pairs of GL2(F_p): random ones, and Cartan normalizers
        # (a torus element with an element swapping its eigenlines) conjugated
        # by a random matrix, so that dihedral images are common
        rng = random.Random(29)
        kinds = Counter()
        even_not_dihedral = 0
        for i in range(120):
            p = (2, 3, 5, 7, 11, 13)[i % 6]
            F = Fq(p)

            def invertible():
                while True:
                    m = tuple(rng.randrange(p) for _ in range(4))
                    if mat_det2(F, m):
                        return m

            shape = rng.choice(("random", "split", "nonsplit") if p > 2 else ("random", "split"))
            if shape == "random":
                gens = (invertible(), invertible())
            else:
                a, b = rng.randrange(p), rng.randrange(1, p)
                if shape == "split":
                    gens = ((rng.randrange(1, p), 0, 0, b), (0, b, rng.randrange(1, p), 0))
                else:
                    ns = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
                    gens = ((a, ns * b % p, b, a), (1, 0, 0, p - 1))
                h = invertible()
                gens = tuple(mat_mul2(F, mat_mul2(F, h, g), mat_inv2(F, h)) for g in gens)
            group = FqMatrixGroup(F, gens)
            c = classify_projective_image(group)
            kinds[c.kind] += 1
            proj = gl2img._projective_group(F, group.closure())
            n = len(proj)
            orders = gl2img._proj_element_orders(F, proj)
            dihedral = n % 2 == 0 and is_projectively_dihedral(F, proj, orders, n)
            # the element-order test stands in for the normality check on every group
            assert (n % 2 == 0 and n // 2 in orders.values()) == dihedral, (p, gens)
            even_not_dihedral += n % 2 == 0 and not dihedral
            if c.kind in ("Dihedral", "LargeIntermediate"):
                assert (c.kind == "Dihedral") == bool(n % p and dihedral), (p, gens)
        assert kinds["Dihedral"] >= 20 and even_not_dihedral >= 20, (kinds, even_not_dihedral)


class TestLiCheck:
    def test_gl2_f3(self):
        F = Fq(3)
        g = FqMatrixGroup(F, SL2_GENS + ((2, 0, 0, 1),))
        assert li_check(g) == 3

    def test_sl2_f3(self):
        # the derived subgroup of SL2(F_3) is Q8, not SL2(F_3)
        assert li_check(FqMatrixGroup(Fq(3), SL2_GENS)) == 3

    def test_sl2_f2(self):
        # SL2(F_2) = GL2(F_2) = S3, whose derived subgroup is C3
        assert li_check(FqMatrixGroup(Fq(2), SL2_GENS)) == 2
        assert li_check(FqMatrixGroup(Fq(2, 2), SL2_GENS)) == 2

    def test_proper_subgroups_of_sl2_f3_fail(self):
        q8 = ((0, 1, 2, 0), (1, 1, 1, 2))
        assert len(FqMatrixGroup(Fq(3), q8).closure()) == 8
        assert li_check(FqMatrixGroup(Fq(3), q8)) is None
        assert li_check(FqMatrixGroup(Fq(3), ((1, 1, 0, 1),))) is None

    def test_dihedral_fails(self):
        F = Fq(5)
        g = FqMatrixGroup(F, ((2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)))
        assert li_check(g) is None

    def test_scalar_extended_gl2_f3(self):
        F = Fq(3, 2)
        gen = next(a for a in range(9)
                   if F.subfield_size([a]) == 9 and a != 0)
        # pick a multiplicative generator of F_9
        g9 = None
        for a in range(2, 9):
            seen, x = set(), 1
            for _ in range(8):
                x = F.mul(x, a)
                seen.add(x)
            if len(seen) == 8:
                g9 = a
                break
        g = FqMatrixGroup(F, ((1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1),
                              (g9, 0, 0, g9)))
        assert li_check(g) == 3

    def test_full_gl2_f9(self):
        F = Fq(3, 2)
        g9 = None
        for a in range(2, 9):
            seen, x = set(), 1
            for _ in range(8):
                x = F.mul(x, a)
                seen.add(x)
            if len(seen) == 8:
                g9 = a
                break
        g = FqMatrixGroup(F, ((1, 1, 0, 1), (1, 0, 1, 1), (g9, 0, 0, 1)))
        assert li_check(g) == 9

    def test_sl2_f11_conjugate_work_count(self, monkeypatch):
        # the brute-force derived subgroup made 319440 products here
        group = FqMatrixGroup(Fq(11), SL2_F11_CONJUGATE)
        group.closure()
        real = gl2img.mat_mul2
        calls = []

        def counting_mat_mul2(F, m, n):
            calls.append(None)
            return real(F, m, n)

        monkeypatch.setattr(gl2img, "mat_mul2", counting_mat_mul2)
        assert li_check(group) == 11
        assert len(calls) < 20000

    def test_lagrange_exit_work_count(self, monkeypatch):
        # a Borel subgroup of GL2(F_8) of order 392: 6 does not divide its 56
        # determinant-one elements, so no conjugate of SL2(F_2) lies among
        # them; a search over GL2(F_8) made 369424 products here
        group = FqMatrixGroup(Fq(2, 3), ((2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1),
                                         (1, 2, 0, 1), (1, 4, 0, 1)))
        assert len(group.closure()) == 392
        real = gl2img.mat_mul2
        calls = []

        def counting_mat_mul2(F, m, n):
            calls.append(None)
            return real(F, m, n)

        monkeypatch.setattr(gl2img, "mat_mul2", counting_mat_mul2)
        assert li_check(group) is None
        assert len(calls) < 1000


ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]


def _random_invertible(rng, F, kind):
    while True:
        if kind == "any":
            m = tuple(rng.randrange(F.q) for _ in range(4))
        elif kind == "upper":
            m = (rng.randrange(F.q), rng.randrange(F.q), 0, rng.randrange(F.q))
        elif kind == "prime":
            m = tuple(rng.randrange(F.p) for _ in range(4))
        else:  # monomial
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            m = (a, 0, 0, b) if rng.random() < 0.5 else (0, a, b, 0)
        if mat_det2(F, m):
            return m


def _random_subgroup(rng, F, kind):
    """1-3 random generators of one kind; groups over 1400 elements are
    redrawn to keep the brute-force oracles fast.  Prime-field generators get
    a random scalar of F_q, so that over F_{p^r} the search for q' < q runs."""
    while True:
        gens = tuple(_random_invertible(rng, F, kind) for _ in range(rng.randint(1, 3)))
        if kind == "prime":
            lam = rng.randrange(1, F.q)
            gens += ((lam, 0, 0, lam),)
        group = FqMatrixGroup(F, gens)
        try:
            group.closure(1400)
        except CapExceeded:
            continue
        return group


def _assert_matches_oracles(group):
    F = group.field
    want = derived_subgroup_all_commutators(F, group.closure(), group.generators)
    assert _derived_subgroup(F, group.generators) == want
    assert li_check(group) == li_check_search(group)


class TestLargeImageOracles:
    """The normal-closure derived subgroup and li_check against the
    brute-force routes they replaced (tests/gl2img_oracles.py)."""

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS)
    def test_random_subgroups(self, p, r):
        # over F_8 this draws a Borel subgroup of order 392, for which the
        # oracle searches GL2(F_8) for a conjugator into SL2(F_2) and fails,
        # while li_check returns at once by Lagrange
        F = Fq(p, r)
        rng = random.Random(10000 + 100 * p + r)
        for kind in ("any", "upper", "prime", "monomial"):
            _assert_matches_oracles(_random_subgroup(rng, F, kind))

    # F_13 is left to tests/golden/classify_sl2_f13_li.json: the oracles
    # take about 3 s on an SL2(F_13) conjugate
    @pytest.mark.parametrize("p,r", [f for f in ORACLE_FIELDS if f != (13, 1)])
    def test_sl2_conjugates_plus_scalars(self, p, r):
        # SL2(F_p) conjugated inside GL2(F_q), with a random scalar of F_q
        F = Fq(p, r)
        rng = random.Random(1000 + 100 * p + r)
        c = _random_invertible(rng, F, "any")
        ci = mat_inv2(F, c)
        lam = rng.randrange(1, F.q)
        gens = tuple(mat_mul2(F, mat_mul2(F, ci, g), c) for g in SL2_GENS)
        group = FqMatrixGroup(F, gens + ((lam, 0, 0, lam),))
        assert li_check(group) == p
        _assert_matches_oracles(group)


def _rand_mat(rng, lo=-3, hi=3):
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(2)) for _ in range(2))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


class TestTensorInduce:
    def test_identity_perm_is_kronecker(self):
        m1 = ((1, 2), (3, 4))
        m2 = ((0, 1), (1, 0))
        got = tensor_induce((m1, m2), (0, 1))
        kron = tuple(
            tuple(m1[i][j] * m2[k][l] for j in range(2) for l in range(2))
            for i in range(2) for k in range(2)
        )
        assert got == kron

    def test_swap_operator(self):
        ident = ((1, 0), (0, 1))
        sw = tensor_induce((ident, ident), (1, 0))
        assert sum(sw[i][i] for i in range(4)) == 2
        # it is the basis swap e_i (x) e_j -> e_j (x) e_i
        assert sw[1][2] == sw[2][1] == 1 and sw[1][1] == 0

    def test_cocycle_multiplicativity_integers(self):
        rng = random.Random(10)
        for _ in range(100):
            d = rng.randint(1, 3)
            mats1 = [_rand_mat(rng) for _ in range(d)]
            mats2 = [_rand_mat(rng) for _ in range(d)]
            p1 = list(range(d))
            p2 = list(range(d))
            rng.shuffle(p1)
            rng.shuffle(p2)
            lhs = tensor_matmul(tensor_induce(mats1, p1), tensor_induce(mats2, p2))
            rhs = tensor_induce(*tensor_compose((mats1, p1), (mats2, p2)))
            assert lhs == rhs

    def test_cocycle_multiplicativity_f7(self):
        F = Fq(7)
        rng = random.Random(11)
        for _ in range(100):
            d = rng.randint(1, 3)

            def rand_f7():
                while True:
                    m = tuple(tuple(rng.randrange(7) for _ in range(2))
                              for _ in range(2))
                    if mat_det2(F, (m[0][0], m[0][1], m[1][0], m[1][1])) != 0:
                        return m
            mats1 = [rand_f7() for _ in range(d)]
            mats2 = [rand_f7() for _ in range(d)]
            p1 = list(range(d))
            p2 = list(range(d))
            rng.shuffle(p1)
            rng.shuffle(p2)
            lhs = tensor_matmul(tensor_induce(mats1, p1, F),
                                tensor_induce(mats2, p2, F), F)
            rhs = tensor_induce(*tensor_compose((mats1, p1), (mats2, p2), F), F)
            assert lhs == rhs

    def test_determinant_identity(self):
        rng = random.Random(12)
        for _ in range(30):
            d = rng.randint(1, 3)
            mats = [_rand_mat(rng) for _ in range(d)]
            ti = tensor_induce(mats, list(range(d)))
            lhs = bareiss_det([list(r) for r in ti])
            rhs = 1
            for m in mats:
                rhs *= (m[0][0] * m[1][1] - m[0][1] * m[1][0]) ** (2 ** (d - 1))
            assert lhs == rhs

    def test_size_overflow(self):
        ident = ((1, 0), (0, 1))
        with pytest.raises(SizeOverflow):
            tensor_induce([ident] * 11, list(range(11)))


class TestRecoverFromSubsetSums:
    def test_example(self):
        assert recover_from_subset_sums([1, 2, 4, 5], 2) == (3, (0, 1))

    def test_singleton(self):
        assert recover_from_subset_sums([3, 4], 1) == (7, (3,))

    def test_inconsistent(self):
        with pytest.raises(Inconsistent):
            recover_from_subset_sums([0, 1, 2, 5], 2)

    def test_wrong_size(self):
        with pytest.raises(Inconsistent):
            recover_from_subset_sums([1, 2, 3], 2)

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_rejected(self, d):
        with pytest.raises(Inconsistent, match=f"^d = {d} must be at least 1$"):
            recover_from_subset_sums([4], d)

    def test_left_inverse_exhaustive_small(self):
        # all valid part multisets for a <= 8, d <= 3 (full range in acceptance)
        from itertools import combinations_with_replacement
        for a in range(1, 9):
            for d in range(1, 4):
                for parts in combinations_with_replacement(
                        range((a + 1) // 2), d):
                    s = all_subset_sums((a, parts))
                    assert recover_from_subset_sums(s, d) == (a, tuple(sorted(parts)))


class TestTameChar:
    def test_generator_order(self):
        assert tame_char_order(TameChar(1, 7, (1,))) == 6

    def test_level_two(self):
        assert tame_char_order(TameChar(2, 3, (1, 1))) == 2
        assert tame_char_order(TameChar(2, 5, (1, 3))) == 3

    def test_zero_exponent_convention(self):
        assert tame_char_order(TameChar(1, 7, (0,))) == 0
        assert tame_char_order(TameChar(2, 3, (8, 0))) == 0

    def test_exceptional_chain(self):
        """Order <= 5 for digits +-(k_t - 1) forces 5 sum(k-1) >= h(p-1)."""
        from itertools import product
        for p in (2, 3, 5, 7, 11, 13):
            for h in (1, 2, 3):
                for ks in product(range(2, 7), repeat=h):
                    for signs in product((1, -1), repeat=h):
                        e = tuple(s * (k - 1) for s, k in zip(signs, ks))
                        order = tame_char_order(TameChar(h, p, e))
                        if order == 0:
                            order = 1  # trivial character
                        if order <= 5:
                            assert 5 * sum(k - 1 for k in ks) >= h * (p - 1), (
                                p, h, ks, signs)


@pytest.mark.parametrize("modulus", [[1, 2, 1], [1], [2, 5], [2, 0]])
def test_prime_field_modulus_is_monic_linear(modulus):
    with pytest.raises(ValueError, match="^modulus must be monic of degree r$"):
        Fq(5, 1, modulus)


def test_prime_field_modulus_is_kept():
    # x + 2 and x + 7 are one modulus over F_5, and x + c0 gives F_5 itself
    assert Fq(5, 1, [2, 1]).modulus == Fq(5, 1, [7, 6]).modulus == (2, 1)
    assert Fq(5, 1).modulus == (0, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: Fq(3, 2, [2.9, 2, 1]), "modulus coefficient must be an integer, not 2.9"),
    (lambda: Fq(5, 1, [3.5, 1]), "modulus coefficient must be an integer, not 3.5"),
    (lambda: Fq(5, 2.0), "r must be an integer, not 2.0"),
    (lambda: Fq(5.0), "p must be an integer, not 5.0"),
    (lambda: recover_from_subset_sums([1.9, 2, 4, 5], 2),
     "subset sum must be an integer, not 1.9"),
    (lambda: recover_from_subset_sums([1, 2, 4, 5], 2.0), "d must be an integer, not 2.0"),
    (lambda: tensor_induce([((1, 0), (0, 1))] * 2, (1.7, 0.2)),
     "perm entry must be an integer, not 1.7"),
])
def test_non_integer_entries_rejected(call, message):
    """A float is an error, not truncated to another modulus, multiset or slot."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
