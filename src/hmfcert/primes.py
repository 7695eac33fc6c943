"""Integer factorization and primality helpers.

Everything here is deterministic.  Miller-Rabin with the prime witnesses
2..41 is a proof of primality below psi_13 = 3317044064679887385961981,
the least strong pseudoprime to all of them (Sorenson & Webster, Math.
Comp. 2017).  From psi_13 on, a number must also pass a strong Lucas
test with Selfridge's parameters; with the Miller-Rabin round to base 2
this is the Baillie-PSW test (Baillie & Wagstaff, Math. Comp. 1980), so
"prime" there means a probable prime: no BPSW pseudoprime is known, but
none has been ruled out.  Pollard rho is seeded from the input so
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
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, odd n > 1.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1 (none exists for a
    square), P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes
    when U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, 2 U_(k+1) = U_k + V_k, 2 V_(k+1) = D U_k + V_k
    u, v, qk = 1, 1, Q % n
    for i in range(d.bit_length() - 2, -1, -1):
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if d >> i & 1:
            u, v = (u + v) % n, (D * u + v) % n
            u, v = (u + n * (u & 1)) >> 1, (v + n * (v & 1)) >> 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by Newton's iteration from above."""
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r**k for the least prime k, or None if m is no power."""
    for k in range(2, m.bit_length()):
        if is_prime(k):
            r = _iroot(m, k)
            if r ** k == m:
                return r, k
    return None


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division up to 10**6, then Pollard rho.  A composite cofactor
    above 2**128 is split only when it is a perfect power r**k, and r is
    factored in its place; otherwise FactorizationIncomplete is raised.
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
    # (cofactor, multiplicity) pairs: a perfect power's root is factored once
    stack = [(rest, 1)]
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        if m > _RHO_CAP:
            power = _perfect_power(m)
            if power is None:
                raise FactorizationIncomplete(n, m, out)
            r, k = power
            stack.append((r, e * k))
            continue
        try:
            d = _pollard_rho(m)
        except FactorizationIncomplete:
            raise FactorizationIncomplete(n, m, out) from None
        stack.append((d, e))
        stack.append((m // d, e))
    return out
