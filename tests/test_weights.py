import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfcert.weights import (
    InvalidPartition,
    ParityMismatch,
    WeightTooSmall,
    all_subset_sums,
    hodge_multiset,
    make_weight,
    mask_indices,
    mw_check,
    non_induced_check,
    p_of,
    prime_bounds,
    subset_label,
    subset_mask,
)


def random_weight(rng, d_max=6, k0_max=12):
    d = rng.randint(1, d_max)
    k0 = rng.randint(2, k0_max)
    parity = k0 % 2
    choices = [k for k in range(2, k0 + 1) if k % 2 == parity]
    k = [rng.choice(choices) for _ in range(d)]
    k[rng.randrange(d)] = k0  # ensure the max is attained
    return make_weight(k)


class TestMakeWeight:
    def test_parallel_two(self):
        w = make_weight([2, 2])
        assert (w.k0, w.n, w.m) == (2, (0, 0), (0, 0))

    def test_mixed(self):
        w = make_weight([4, 2])
        assert (w.k0, w.n, w.m) == (4, (2, 0), (0, 1))

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatch):
            make_weight([3, 2])

    def test_too_small(self):
        with pytest.raises(WeightTooSmall):
            make_weight([2, 0])

    @pytest.mark.parametrize("k", [[4.9, 2], [4, 2.0], [True, 2]])
    def test_non_integer_entry_rejected(self, k):
        with pytest.raises(ValueError, match="^weight entry must be an integer, not "):
            make_weight(k)

    def test_componentwise_identity(self):
        for k in [(4, 2), (5, 3, 3), (8, 2, 6, 4)]:
            w = make_weight(k)
            for t in range(w.d):
                assert w.k[t] + 2 * w.m[t] == w.k0
                assert w.n[t] == w.k[t] - 2


class TestPOf:
    def test_examples(self):
        w = make_weight([4, 2])
        assert p_of(w, ()) == ((0, 1), 1)
        assert p_of(w, (0,)) == ((3, 1), 4)
        assert p_of(w, (0, 1)) == ((3, 2), 5)

    def test_bitmask_equivalent(self):
        w = make_weight([6, 4, 2])
        for mask in range(8):
            assert p_of(w, mask) == p_of(w, mask_indices(mask))


class TestHodgeMultiset:
    def test_examples(self):
        assert hodge_multiset(make_weight([4, 2])).entries == (1, 2, 4, 5)
        assert hodge_multiset(make_weight([2, 2])).entries == (0, 1, 1, 2)
        assert hodge_multiset(make_weight([2])).entries == (0, 1)

    def test_complement_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(100):
            w = random_weight(rng)
            mw = w.motivic_weight
            for mask in range(1 << w.d):
                comp = ((1 << w.d) - 1) ^ mask
                assert p_of(w, mask)[1] + p_of(w, comp)[1] == mw

    def test_sum_is_spread(self):
        rng = random.Random(11)
        for _ in range(100):
            w = random_weight(rng)
            hm = hodge_multiset(w)
            assert w.sum_k_minus_1 == hm.max - hm.min

    def test_quadratic_closed_form(self):
        for k0 in range(2, 11):
            for k1 in range(2, k0 + 1):
                if (k0 - k1) % 2:
                    continue
                w = make_weight([k0, k1])
                m1 = max(w.m)
                expected = tuple(sorted([m1, k0 - m1 - 1, k0 + m1 - 1,
                                         2 * k0 - m1 - 2]))
                assert hodge_multiset(w).entries == expected


class TestMwCheck:
    def test_non_parallel_quadratic(self):
        assert bool(mw_check(make_weight([4, 2])))

    def test_parallel_quadratic_fails(self):
        res = mw_check(make_weight([2, 2]))
        assert not res.ok and res.witness is not None

    def test_odd_weight_parallel(self):
        res = mw_check(make_weight([3, 3]))
        assert not res.ok  # middle 2 is attained in {0, 2, 2, 4}

    def test_odd_motivic_weight_automatic(self):
        # d = 1, k0 even: motivic weight odd
        assert bool(mw_check(make_weight([4])))

    def test_quadratic_non_parallel_automatic(self):
        rng = random.Random(3)
        for _ in range(60):
            w = random_weight(rng, d_max=2)
            if w.d == 2 and not w.is_parallel:
                assert bool(mw_check(w)), w.k


class TestPrimeBounds:
    def test_k42(self):
        b = prime_bounds(make_weight([4, 2]))
        assert b.sum_k_minus_1 == 4
        assert b.min_prime_ii == 7
        assert b.min_prime_exceptional == 13
        assert b.min_prime_combined == 13
        assert b.min_prime_quadratic_alt == 11
        assert b.special_double == frozenset({7, 3})
        assert b.special_cross == frozenset({5})
        assert b.small_excluded == frozenset({2, 3})

    def test_combined_reduces_to_ii_for_large_degree(self):
        w = make_weight([2, 2, 2, 2, 2])
        b = prime_bounds(w)
        assert b.min_prime_combined == b.min_prime_ii

    def test_quadratic_alt_only_for_quadratic(self):
        assert prime_bounds(make_weight([4, 2, 2])).min_prime_quadratic_alt is None
        assert prime_bounds(make_weight([2, 2])).min_prime_quadratic_alt is None


class TestNonInduced:
    def test_detects_non_constant(self):
        assert non_induced_check(make_weight([4, 2]), [{0, 1}])

    def test_constant_block(self):
        assert not non_induced_check(make_weight([4, 4]), [{0, 1}])

    def test_induced_shape(self):
        assert not non_induced_check(make_weight([4, 2, 4, 2]), [{0, 2}, {1, 3}])

    def test_invalid_partitions(self):
        w = make_weight([4, 2, 4, 2])
        with pytest.raises(InvalidPartition):
            non_induced_check(w, [{0, 1}])
        with pytest.raises(InvalidPartition):
            non_induced_check(w, [{0}, {1}, {2}, {3}])
        with pytest.raises(InvalidPartition):
            non_induced_check(w, [{0, 1, 2}, {3}])

    def test_non_integer_block_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^fiber block entry must be an integer, not 1\.5$"):
            non_induced_check(make_weight([4, 2]), [[0, 1.5]])


class TestSubsetHelpers:
    @given(st.sets(st.integers(0, 12)))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, s):
        assert set(mask_indices(subset_mask(s))) == s

    def test_label(self):
        assert subset_label(0) == "{}"
        assert subset_label(0b101) == "{0,2}"


class TestSubsetSums:
    def test_generation_matches_hodge(self):
        rng = random.Random(5)
        for _ in range(50):
            w = random_weight(rng, d_max=4)
            gen = all_subset_sums((w.k0 - 1, w.m))
            assert gen == hodge_multiset(w).entries
