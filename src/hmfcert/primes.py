"""Integer factorization and primality helpers.

Everything here is deterministic.  Miller-Rabin with the prime witnesses
2..41 is a proof of primality below psi_13 = 3317044064679887385961981,
the least strong pseudoprime to all of them (Sorenson & Webster, Math.
Comp. 2017).  From psi_13 on, a number must also pass sympy's BPSW test,
so "prime" there means a probable prime: no BPSW pseudoprime is known,
but none has been ruled out.  Pollard rho is seeded from the input so
identical inputs give identical factorizations.
"""

from __future__ import annotations

import math

_TRIAL_BOUND = 10**6
_RHO_CAP = 2**128

# Deterministic Miller-Rabin witnesses, a proof of primality for n < _PSI_13.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


class FactorizationIncomplete(Exception):
    """A composite cofactor above the working cap was left unfactored."""

    def __init__(self, n: int, cofactor: int, partial: dict[int, int]):
        super().__init__(f"unfactored composite cofactor {cofactor} of {n}")
        self.n = n
        self.cofactor = cofactor
        self.partial = partial


def is_prime(n: int) -> bool:
    """Proven below psi_13 (see the module docstring), BPSW-probable above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        from sympy import isprime

        return isprime(n)
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = n + 1
    if m <= 2:
        return 2
    if m % 2 == 0:
        m += 1
    while not is_prime(m):
        m += 2
    return m


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic seed schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactorizationIncomplete(n, n, {})


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division up to 10**6, then Pollard rho.  Raises
    FactorizationIncomplete if a composite cofactor above 2**128 resists.
    """
    n = abs(n)
    if n in (0, 1):
        return {}
    out: dict[int, int] = {}
    rest = n
    for p in (2, 3, 5):
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= rest and f <= _TRIAL_BOUND:
        while rest % f == 0:
            out[f] = out.get(f, 0) + 1
            rest //= f
        f += wheel[i]
        i = (i + 1) % 8
    if rest == 1:
        return out
    stack = [rest]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if m > _RHO_CAP:
            raise FactorizationIncomplete(n, m, out)
        try:
            d = _pollard_rho(m)
        except FactorizationIncomplete:
            raise FactorizationIncomplete(n, m, out) from None
        stack.append(d)
        stack.append(m // d)
    return out
