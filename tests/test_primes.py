import random

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from hmfcert import primes
from hmfcert.primes import (
    FactorizationIncomplete,
    _iroot,
    _strong_lucas,
    factor,
    is_prime,
    next_prime,
)

# psi_12 and psi_13: the least strong pseudoprimes to the first twelve and the
# first thirteen prime bases (Sorenson & Webster, Math. Comp. 2017)
PSI_12 = (399165290221, 798330580441)
PSI_13 = (1287836182261, 2575672364521)


@pytest.mark.parametrize("p, q", [PSI_12, PSI_13])
def test_strong_pseudoprimes_are_composite(p, q):
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)
    assert factor(p * q) == {p: 1, q: 1}


def test_small_and_large_primes():
    assert [n for n in range(50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_strong_lucas_against_sympy():
    assert [n for n in range(3, 10**5, 2) if _strong_lucas(n) != is_strong_lucas_prp(n)] == []
    # the least strong Lucas pseudoprimes for Selfridge's parameters
    for n in (5459, 5777, 10877):
        assert _strong_lucas(n) and not sympy.isprime(n)


def test_is_prime_against_sympy_up_to_2_256():
    rng = random.Random(16)
    for i in range(1200):
        n = rng.getrandbits(rng.randint(2, 256))
        if i % 4 == 0:
            n = sympy.nextprime(n)
        assert is_prime(n) == sympy.isprime(n), n


def test_incomplete_factorization_keeps_the_primes_found(monkeypatch):
    # when Pollard rho gives up, the trial-division primes and the input survive
    def give_up(m):
        raise FactorizationIncomplete(m, m, {})

    monkeypatch.setattr(primes, "_pollard_rho", give_up)
    n = 56 * 1000003 * 1000033
    with pytest.raises(FactorizationIncomplete) as exc:
        factor(-n)
    assert exc.value.partial == {2: 3, 7: 1}
    assert exc.value.n == n
    assert exc.value.cofactor == 1000003 * 1000033


def test_cofactor_above_rho_cap_reports_the_input():
    p1, p2 = 2**89 - 1, 2**107 - 1
    with pytest.raises(FactorizationIncomplete) as exc:
        factor(12 * p1 * p2)
    assert (exc.value.n, exc.value.cofactor, exc.value.partial) == (
        12 * p1 * p2, p1 * p2, {2: 2, 3: 1})


@pytest.mark.parametrize("n, want", [
    ((next_prime(2**40) * next_prime(2**41)) ** 3, {next_prime(2**40): 3, next_prime(2**41): 3}),
    ((2**89 - 1) ** 2, {2**89 - 1: 2}),
    (36 * (2**89 - 1) ** 4, {2: 2, 3: 2, 2**89 - 1: 4}),
    (7 * (2**127 - 1) ** 5, {7: 1, 2**127 - 1: 5}),
], ids=["cube-of-semiprime", "square", "fourth-power", "fifth-power"])
def test_perfect_power_above_rho_cap_is_split(n, want):
    """A composite cofactor above 2**128 that is r**k is factored through r."""
    assert factor(n) == want


def test_power_of_an_unsplittable_cofactor_still_flagged():
    p1, p2 = 2**89 - 1, 2**107 - 1
    with pytest.raises(FactorizationIncomplete) as exc:
        factor(12 * (p1 * p2) ** 2)
    assert (exc.value.cofactor, exc.value.partial) == (p1 * p2, {2: 2, 3: 1})


def test_iroot_is_the_floor_root():
    rng = random.Random(21)
    for _ in range(2000):
        m, k = rng.getrandbits(rng.randint(1, 400)) + 1, rng.randint(2, 60)
        r = _iroot(m, k)
        assert r ** k <= m < (r + 1) ** k, (m, k)
