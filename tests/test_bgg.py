import json
import math
from itertools import product

import pytest

from hmfcert.bgg import (
    TWeight,
    bgg_table,
    central_char_equiv,
    kostant_weights,
    mod_p_guard,
    omega_weights,
)
from hmfcert.primes import next_prime
from hmfcert.weights import make_weight


class TestKostantWeights:
    def test_degree_zero(self):
        assert kostant_weights((2, 0), 0) == [(0, TWeight((2, 0)))]

    def test_degree_one(self):
        got = kostant_weights((2, 0), 1)
        assert got == [(1, TWeight((-4, 0))), (2, TWeight((2, -2)))]

    def test_top_degree(self):
        assert kostant_weights((2, 0), 2) == [(3, TWeight((-4, -2)))]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kostant_weights((2, 0), 3)


class TestOmegaWeights:
    def test_example(self):
        om = omega_weights((2, 0), 1)
        assert sorted(om.elements()) == sorted(
            [(0, 0), (-2, 0), (-4, 0), (2, -2), (0, -2), (-2, -2)]
        )

    def test_trivial(self):
        assert dict(omega_weights((0, 0, 0), 0)) == {(0, 0, 0): 1}

    def test_rank_one(self):
        assert sorted(omega_weights((1,), 1).elements()) == [(-3,), (-1,)]

    def test_cardinality(self):
        for n in [(2, 0), (1, 3), (4,), (2, 1, 1)]:
            d = len(n)
            for i in range(d + 1):
                total = sum(omega_weights(n, i).values())
                expected = math.comb(d, i)
                for nt in n:
                    expected *= nt + 1
                assert total == expected

    def test_kostant_inside_multiplicity_one(self):
        for n in [(2, 0), (3, 1), (2, 2, 0)]:
            d = len(n)
            for i in range(d + 1):
                om = omega_weights(n, i)
                for _, tw in kostant_weights(n, i):
                    assert om[tw.coords] == 1


class TestCentralCharEquiv:
    def test_exact_equality(self):
        for p in (5, 7, 11):
            assert 1 in central_char_equiv((-4, 0), (2, 0), p)

    def test_mod_p_match(self):
        assert central_char_equiv((3, 0), (2, 0), 7) == [1]

    def test_no_match(self):
        assert central_char_equiv((1, 1), (2, 0), 7) == []

    def test_guard(self):
        assert mod_p_guard((2, 0), 7)
        assert not mod_p_guard((2, 0), 5)


class TestChandraBruteForce:
    """Nonempty equivalence classes on the degree-i weights are exactly the
    sign-flip images, each with multiplicity one."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equivalence(self, d):
        for n in product(range(5), repeat=d):
            p = next_prime(sum(n) + d)
            for i in range(d + 1):
                om = omega_weights(n, i)
                kost = {tw.coords for _, tw in kostant_weights(n, i)}
                for mu, mult in om.items():
                    matches = [
                        mask for mask in central_char_equiv(mu, n, p)
                        if bin(mask).count("1") == i
                    ]
                    if mu in kost:
                        assert matches, (n, i, mu)
                        assert mult == 1, (n, i, mu)
                    else:
                        assert not matches, (n, i, mu, p)


class TestE1Table:
    def test_row_zero(self):
        t = bgg_table(make_weight([4, 2]))
        assert t.cell(0, 1) == (0,)
        assert t.cell(0, 2) == ()

    def test_top_cells(self):
        t = bgg_table(make_weight([4, 2]))
        assert t.cell(2, 5) == (3,)
        assert t.cell(1, 4) == (1,)

    def test_fil_membership(self):
        t = bgg_table(make_weight([4, 2]))
        assert set(t.fil_set(0)) == {0, 1, 2, 3}
        assert set(t.fil_set(2)) == {1, 2, 3}
        assert set(t.fil_set(5)) == {3}
        assert t.fil_set(6) == ()

    def test_top_row_enumerates_each_subset_once(self):
        for k in [(4, 2), (2, 2), (6, 4, 2), (3, 3)]:
            w = make_weight(k)
            t = bgg_table(w)
            seen = []
            for r, i, masks in t.cells:
                if r == w.d:
                    seen.extend(masks)
            assert sorted(seen) == list(range(1 << w.d))

    def test_json_roundtrip(self):
        t = bgg_table(make_weight([4, 2]))
        payload = json.loads(t.to_json())
        assert payload["k"] == [4, 2]
        assert {"r": 2, "i": 5, "subsets": [[0, 1]]} in payload["cells"]

    def test_text_render(self):
        text = bgg_table(make_weight([4, 2])).to_text()
        assert "r=0" in text and "Fil^5" in text


@pytest.mark.parametrize("call, message", [
    (lambda: kostant_weights((4.9, 2), 1), "n entry must be an integer, not 4.9"),
    (lambda: omega_weights((4, 2.5), 1), "n entry must be an integer, not 2.5"),
    (lambda: central_char_equiv((1.5, 0), (4, 2), 7), "mu entry must be an integer, not 1.5"),
    (lambda: central_char_equiv((1, 0), (4, True), 7), "n entry must be an integer, not True"),
    (lambda: mod_p_guard((4.9, 2), 11), "n entry must be an integer, not 4.9"),
    (lambda: mod_p_guard((4, 2), 11.5), "p must be an integer, not 11.5"),
    (lambda: mod_p_guard((4, 2), 11, d=2.0), "d must be an integer, not 2.0"),
    (lambda: central_char_equiv((1, 0), (4, 2), 7.5), "p must be an integer, not 7.5"),
])
def test_non_integer_weights_rejected(call, message):
    """A float is an error, not truncated to the weight of another form."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
