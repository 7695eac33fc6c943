"""Weight-vector combinatorics and the numeric prime bounds.

A weight is an integer vector k over the embedding indices {0..d-1}, all
entries >= 2 and of equal parity.  Derived data: k0 = max, n = k - 2,
m = (k0 - k)/2.  Subsets of the index set are bitmasks internally and
printed as sorted index lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primes import is_prime, next_prime


class ParityMismatch(Exception):
    pass


class WeightTooSmall(Exception):
    pass


class InvalidPartition(Exception):
    pass


def subset_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in mask_indices(mask)) + "}"


@dataclass(frozen=True)
class Weight:
    k: tuple[int, ...]
    k0: int
    n: tuple[int, ...]
    m: tuple[int, ...]
    d: int

    @property
    def is_parallel(self) -> bool:
        return len(set(self.k)) == 1

    @property
    def sum_k_minus_1(self) -> int:
        return sum(kt - 1 for kt in self.k)

    @property
    def motivic_weight(self) -> int:
        return self.d * (self.k0 - 1)


def make_weight(k) -> Weight:
    k = tuple(int(x) for x in k)
    if not k:
        raise ValueError("weight vector must be nonempty")
    if any(kt < 2 for kt in k):
        raise WeightTooSmall(f"all weights must be >= 2: {k}")
    if len({kt % 2 for kt in k}) != 1:
        raise ParityMismatch(f"weights must share parity: {k}")
    k0 = max(k)
    n = tuple(kt - 2 for kt in k)
    m = tuple((k0 - kt) // 2 for kt in k)
    return Weight(k=k, k0=k0, n=n, m=m, d=len(k))


def p_of(w: Weight, J) -> tuple[tuple[int, ...], int]:
    """The vector with entries k0-m_t-1 on J and m_t off J, and its sum."""
    mask = J if isinstance(J, int) else subset_mask(J)
    vec = tuple(
        (w.k0 - w.m[t] - 1) if (mask >> t) & 1 else w.m[t] for t in range(w.d)
    )
    return vec, sum(vec)


@dataclass(frozen=True)
class HodgeMultiset:
    entries: tuple[int, ...]  # sorted, with multiplicity, one per subset
    motivic_weight: int

    @property
    def min(self) -> int:
        return self.entries[0]

    @property
    def max(self) -> int:
        return self.entries[-1]


def hodge_multiset(w: Weight) -> HodgeMultiset:
    """All 2^d values |p(J)| with multiplicity."""
    vals = sorted(p_of(w, mask)[1] for mask in range(1 << w.d))
    return HodgeMultiset(entries=tuple(vals), motivic_weight=w.motivic_weight)


@dataclass(frozen=True)
class MwResult:
    ok: bool
    witness: int | None  # bitmask of a subset J achieving the middle weight

    def __bool__(self) -> bool:
        return self.ok


def mw_check(w: Weight) -> MwResult:
    """Middle-weight test: d(k0-1)/2 must avoid the Hodge multiset.

    Odd motivic weight passes immediately; on failure the witness subset
    is returned for the report.
    """
    mw2 = w.motivic_weight
    if mw2 % 2 == 1:
        return MwResult(True, None)
    middle = mw2 // 2
    for mask in range(1 << w.d):
        if p_of(w, mask)[1] == middle:
            return MwResult(False, mask)
    return MwResult(True, None)


@dataclass(frozen=True)
class BoundsReport:
    """Smallest admissible primes for each strict bound, plus special sets.

    Each min_prime_* field is inclusive: that prime and all larger ones
    satisfy the bound.  The special sets are already filtered to primes.
    """

    k0: int
    sum_k_minus_1: int
    min_prime_ii: int            # p - 1 > sum(k-1)
    min_prime_exceptional: int   # d(p - 1) > 5 sum(k-1)
    min_prime_combined: int      # p - 1 > max(1, 5/d) sum(k-1)
    min_prime_quadratic_alt: int | None  # d = 2 alternative: p - 1 > 4(k0 - m1 - 1)
    special_double: frozenset[int]   # primes among {2k_t - 1}
    special_cross: frozenset[int]    # primes among {k_t + k_t' - 1, t != t'}
    small_excluded: frozenset[int]   # primes p with p | 6 or p <= k0

    def to_json_dict(self):
        return {
            "sum_k_minus_1": self.sum_k_minus_1,
            "min_prime_II": self.min_prime_ii,
            "min_prime_exceptional": self.min_prime_exceptional,
            "min_prime_combined": self.min_prime_combined,
            "min_prime_quadratic_alt": self.min_prime_quadratic_alt,
            "special_2k_minus_1": sorted(self.special_double),
            "special_cross": sorted(self.special_cross),
            "small_excluded": sorted(self.small_excluded),
        }


def _min_prime_strict(bound: Fraction) -> int:
    """Smallest prime p with p - 1 > bound."""
    p = 2
    while not (p - 1 > bound):
        p = next_prime(p)
    return p


def prime_bounds(w: Weight) -> BoundsReport:
    s = w.sum_k_minus_1
    mp_ii = _min_prime_strict(Fraction(s))
    mp_exc = _min_prime_strict(Fraction(5 * s, w.d))
    mp_a = _min_prime_strict(max(Fraction(1), Fraction(5, w.d)) * s)
    mp_cor = None
    if w.d == 2 and not w.is_parallel:
        m1 = max(w.m)
        mp_cor = _min_prime_strict(Fraction(4 * (w.k0 - m1 - 1)))
    hm = hodge_multiset(w)
    assert s == hm.max - hm.min
    double = frozenset(v for v in {2 * kt - 1 for kt in w.k} if is_prime(v))
    cross = frozenset(
        v
        for v in {
            w.k[i] + w.k[j] - 1
            for i in range(w.d)
            for j in range(w.d)
            if i != j
        }
        if is_prime(v)
    )
    small = frozenset(p for p in range(2, w.k0 + 1) if is_prime(p)) | {2, 3}
    return BoundsReport(
        k0=w.k0,
        sum_k_minus_1=s,
        min_prime_ii=mp_ii,
        min_prime_exceptional=mp_exc,
        min_prime_combined=mp_a,
        min_prime_quadratic_alt=mp_cor,
        special_double=double,
        special_cross=cross,
        small_excluded=small,
    )


def non_induced_check(w: Weight, fibers) -> bool:
    """True unless k is constant on every block of the given fiber partition.

    The blocks are the fibers of the embedding restriction to a candidate
    strict subfield; they must partition {0..d-1} into equal sizes > 1.
    """
    blocks = [tuple(sorted(int(i) for i in b)) for b in fibers]
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(w.d)):
        raise InvalidPartition("blocks do not partition the index set")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise InvalidPartition("blocks must have equal sizes")
    size = sizes.pop()
    if size <= 1:
        raise InvalidPartition("blocks must have size > 1 (strict subfield)")
    for b in blocks:
        if len({w.k[i] for i in b}) != 1:
            return True
    return False


def all_subset_sums(parts) -> tuple[int, ...]:
    """Sorted multiset of sums over subsets J: sum_J (a - a_t) + sum_Jc a_t.

    Used as the generation half of the weight-recovery roundtrip; `parts`
    is (a, (a_0, ..., a_{d-1})).
    """
    a, at = parts
    d = len(at)
    out = []
    for mask in range(1 << d):
        out.append(sum((a - at[t]) if (mask >> t) & 1 else at[t] for t in range(d)))
    return tuple(sorted(out))
