import math
import random
import re
from fractions import Fraction

import pytest

from hmfcert.modform import (
    AdjointInputs,
    EulerParams,
    MissingCoefficient,
    MissingRatio,
    NotTotallyPositive,
    PoleAtS,
    QExpansion,
    ZeroEigenvalue,
    adjoint_local_factor,
    complex_gamma,
    d_local_factor,
    eval_correction,
    gamma_adjoint,
    lambda_star,
    lstar_correction,
    ramanujan_sample,
    residue_coefficient,
    residue_cross_check,
    shimura_leading_coefficient,
    critical_ratio_predicate,
    verify_zeta_ratio,
)
from hmfcert.nfield import make_field
from hmfcert.weights import make_weight


@pytest.fixture(scope="module")
def q5():
    return make_field([-5, 0, 1])


@pytest.fixture(scope="module")
def eps0(q5):
    return q5.element([Fraction(3, 2), Fraction(1, 2)])


class TestAdjointLocalFactor:
    def test_equal_eigenvalues(self):
        p = adjoint_local_factor(EulerParams(2 + 0j, 2 + 0j, 1 + 0j, 2, 2))
        # (1 - X)^3
        assert [round(c.real, 10) for c in p] == [1, -3, 3, -1]

    def test_constant_term(self):
        p = adjoint_local_factor(EulerParams(2 + 0j, 3 + 0j, 1 + 0j, 2, 2))
        assert p[0] == 1

    def test_explicit_expansion(self):
        p = adjoint_local_factor(EulerParams(2 + 0j, 3 + 0j, 1 + 0j, 2, 2))
        r = 2 / 3
        expected = [1, -(r + 1 + 1 / r), (r + 1 / r + 1), -1]
        for got, want in zip(p, expected):
            assert abs(got - want) < 1e-12

    def test_zero_eigenvalue(self):
        with pytest.raises(ZeroEigenvalue):
            adjoint_local_factor(EulerParams(0j, 1 + 0j, 1 + 0j, 2, 2))


class TestDLocalFactor:
    def test_real_case_roots(self):
        e = EulerParams(2 + 0j, 3 + 0j, 1 + 0j, 2, 2)
        f = d_local_factor(e)
        for g in f.denominator:
            assert abs(g.imag) < 1e-12

    def test_numerator_constant(self):
        e = ramanujan_sample(3, 4, 0.3, 0.8)
        f = d_local_factor(e)
        assert f.numerator[0] == 1

    def test_two_evaluation_paths_agree(self):
        e = ramanujan_sample(5, 3, 1.1, 0.4)
        f = d_local_factor(e)
        x = 0.1 + 0j
        via_poly = (
            (f.numerator[0] + f.numerator[1] * x + f.numerator[2] * x * x)
        )
        den = 1 + 0j
        for g in (e.alpha * e.alpha.conjugate(), e.alpha * e.beta.conjugate(),
                  e.beta * e.alpha.conjugate(), e.beta * e.beta.conjugate()):
            den *= 1 - g * x
        direct_num = 1 - (e.alpha * e.beta) * (e.alpha * e.beta).conjugate() * x * x
        poly_den = 0j
        for i, c in enumerate(f.denominator):
            poly_den += c * x**i
        assert abs(poly_den - den) < 1e-9 * abs(den)
        assert abs(via_poly - direct_num) < 1e-12


class TestLocalFactorTypes:
    def test_products_are_complex(self):
        # a product seeded with the int 1 would leave an int constant term,
        # and so would a D numerator written out with the ints 1 and 0
        rng = random.Random(3)
        for _ in range(10):
            e = ramanujan_sample(rng.choice([2, 3, 5, 7]), rng.choice([2, 3, 4]),
                                 rng.uniform(0, 6.3), rng.uniform(0, 6.3))
            f = d_local_factor(e)
            for c in adjoint_local_factor(e) + f.denominator + f.numerator:
                assert type(c) is complex


class TestVerifyZetaRatio:
    def test_basic_sample(self):
        assert verify_zeta_ratio(ramanujan_sample(2, 2, 0.0), [2.0]) < 1e-9

    def test_random_samples(self):
        rng = random.Random(0)
        worst = 0.0
        for _ in range(40):
            q = rng.choice([2, 3, 5])
            k0 = rng.choice([2, 3, 4])
            e = ramanujan_sample(q, k0, rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi))
            pts = [rng.uniform(1.5, 3.0) + 1j * rng.uniform(-1, 1)
                   for _ in range(5)]
            worst = max(worst, verify_zeta_ratio(e, pts))
        assert worst < 1e-9

    def test_broken_conjugation_detected(self):
        err = verify_zeta_ratio(ramanujan_sample(3, 3, 0.7, 1.1), [2.0, 2.5],
                            break_conjugation=True)
        assert err > 1e-3


class TestLstarCorrection:
    def test_table(self):
        assert lstar_correction("PrincipalMinimal", 3) == [1, -1]
        assert lstar_correction("SpecialMinimal", 3) == [1, Fraction(-1, 3)]
        assert lstar_correction("Other", 3) == [1]

    def test_evaluation(self):
        # 1 - q^-s-1 at q=2, s=1: 1 - 1/4
        val = eval_correction(lstar_correction("SpecialMinimal", 2), 2, 1.0)
        assert abs(val - 0.75) < 1e-12

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            lstar_correction("Sometype", 2)


class TestGammaAdjoint:
    def test_closed_form(self):
        w = make_weight([2])
        got = gamma_adjoint(1.0, w, "Standard")
        assert abs(got - 1 / (4 * math.pi**3)) < 1e-12

    def test_convention_ratio(self):
        w = make_weight([2])
        ratio = gamma_adjoint(1.0, w, "AsPrinted") / gamma_adjoint(1.0, w, "Standard")
        assert abs(ratio - (2 * math.pi) ** 4) < 1e-6

    def test_multiplicative_over_places(self):
        w1 = make_weight([2])
        w2 = make_weight([2, 2])
        assert abs(gamma_adjoint(1.0, w2, "Standard")
                   - gamma_adjoint(1.0, w1, "Standard") ** 2) < 1e-15

    def test_pole(self):
        with pytest.raises(PoleAtS):
            gamma_adjoint(-1.0, make_weight([2]), "Standard")

    def test_gamma_accuracy(self):
        # 12+ significant digits against known values
        assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-12
        assert abs(complex_gamma(5.0) - 24.0) < 1e-10
        z = 2.5 + 1.5j
        # recurrence check Gamma(z+1) = z Gamma(z)
        assert abs(complex_gamma(z + 1) - z * complex_gamma(z)) \
            < 1e-12 * abs(complex_gamma(z + 1))


class TestLambdaStar:
    def test_exact_value(self):
        got = lambda_star(AdjointInputs(abs_k=6, delta=20, h_f=1,
                                        petersson=Fraction(1)))
        assert got == Fraction(8, 5)

    def test_homogeneous_in_petersson(self):
        a = lambda_star(AdjointInputs(6, 20, 1, Fraction(3, 7)))
        b = lambda_star(AdjointInputs(6, 20, 1, Fraction(1)))
        assert a == b * Fraction(3, 7)

    def test_predicate(self):
        base = dict(abs_k=6, delta=20, h_f=1, petersson=Fraction(1))
        assert not critical_ratio_predicate(AdjointInputs(**base, ratio=Fraction(1)), 7)
        assert critical_ratio_predicate(AdjointInputs(**base, ratio=Fraction(10, 3)), 5)
        assert not critical_ratio_predicate(AdjointInputs(**base, ratio=Fraction(10, 3)), 3)

    def test_missing_ratio(self):
        with pytest.raises(MissingRatio):
            critical_ratio_predicate(AdjointInputs(6, 20, 1, Fraction(1)), 5)


class TestResidueBookkeeping:
    def test_leading_coefficients(self):
        w = make_weight([4, 2])
        lead = shimura_leading_coefficient(w)
        assert lead == {"2": 1 + 12, "pi": 6, "gamma_prod": -1}
        res = residue_coefficient(w)
        assert res["pi"] == 6 + 2 and res["Delta"] == -1

    def test_cross_check_residual_is_unit_index_squared(self):
        for k in [(4, 2), (2, 2), (3, 3, 5), (6, 2), (2, 2, 2, 2)]:
            assert residue_cross_check(make_weight(k)) == {"idx": 2}


class TestQExpansion:
    def _expansion(self, q5, eps0, weight=(4, 2)):
        w = make_weight(weight)
        xi = q5.element([3, 1])
        return QExpansion(q5, w, "c1", {xi: Fraction(7)}, eps0), xi

    def test_parallel_weight_exact(self, q5, eps0):
        w = make_weight([2, 2])
        xi = q5.element([3, 1])
        qe = QExpansion(q5, w, "c1", {xi: Fraction(5)}, eps0)
        val = qe.c_of_ideal(xi)
        assert val.is_rational and val.exact() == 5

    def test_generator_replacement_invariance(self, q5, eps0):
        qe, xi = self._expansion(q5, eps0)
        base = qe.c_of_ideal(xi).approx(96)
        for power in (1, 2, 3):
            u = eps0**power
            alt = qe.c_of_ideal(u * xi).approx(96)
            assert abs(base - alt) < 1e-20

    def test_missing_coefficient(self, q5, eps0):
        qe, _ = self._expansion(q5, eps0)
        with pytest.raises(MissingCoefficient):
            qe.coefficient_of(q5.element([7]))

    def test_not_totally_positive(self, q5, eps0):
        qe, _ = self._expansion(q5, eps0)
        with pytest.raises(NotTotallyPositive):
            qe.coefficient_of(q5.gen)

    def test_one_not_totally_positive_class(self, q5, eps0):
        # coefficient_of checks xi; orbit_reduce, which it calls, checks the unit
        qe = QExpansion(q5, make_weight([4, 2]), "c1", {}, -eps0)
        with pytest.raises(NotTotallyPositive, match="eps0"):
            qe.coefficient_of(q5.element([3, 1]))
        assert issubclass(NotTotallyPositive, ValueError)

    def test_transformation_identity(self):
        # (k + m - t) + m = (k0 - 1) t componentwise
        for k in [(4, 2), (2, 2), (6, 4), (8, 2)]:
            w = make_weight(k)
            for t in range(w.d):
                assert w.k[t] + 2 * w.m[t] - 1 == w.k0 - 1

    def test_orbit_canonical_storage(self, q5, eps0):
        w = make_weight([4, 2])
        xi = q5.element([3, 1])
        shifted = eps0 * eps0 * xi
        qe = QExpansion(q5, w, "c1", {shifted: Fraction(7)}, eps0)
        # the stored key is the canonical representative
        from hmfcert.nfield import orbit_reduce
        assert list(qe.coeffs) == [orbit_reduce(xi, eps0)]


class TestQExpansionLoader:
    def test_load_from_json(self, tmp_path, q5, eps0):
        import json
        from hmfcert.modform import load_qexpansion

        payload = {
            "ideal_label": "c1",
            "coefficients": [[["3", "1"], "7"], [["1", "0"], "1"]],
        }
        path = tmp_path / "qexp.json"
        path.write_text(json.dumps(payload))
        qe = load_qexpansion(str(path), q5, make_weight([4, 2]), eps0)
        assert qe.ideal_label == "c1"
        xi = q5.element([3, 1])
        assert qe.c_of_ideal(xi) is not None
        assert qe.coefficient_of(q5.element([1])).exact() == 1

    @pytest.mark.parametrize("coords, value, message", [
        ([1.5, "0"], "1", 'q-expansion coordinate must be an integer or a "p/q" string, not 1.5'),
        (["1", 0.1], "1", 'q-expansion coordinate must be an integer or a "p/q" string, not 0.1'),
        ([True, 0], "1", 'q-expansion coordinate must be an integer or a "p/q" string, not True'),
        (["1", "0"], 0.5, 'q-expansion value must be an integer or a "p/q" string, not 0.5'),
        ([1, 0], True, 'q-expansion value must be an integer or a "p/q" string, not True'),
    ])
    def test_float_and_bool_rejected(self, tmp_path, q5, eps0, coords, value, message):
        import json
        from hmfcert.modform import load_qexpansion

        path = tmp_path / "qexp.json"
        path.write_text(json.dumps({"coefficients": [[coords, value]]}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_qexpansion(str(path), q5, make_weight([4, 2]), eps0)
