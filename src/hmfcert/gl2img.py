"""Finite GL2 image analysis, tensor induction, and tame-character orders.

Small finite fields F_q (q = p^r <= 121) are table-backed: elements are
integers 0..q-1 encoding base-p coefficient vectors against a fixed
primitive irreducible modulus chosen deterministically.  2x2 matrices are
4-tuples of encoded elements; subgroup closures are breadth-first product
closures with a configurable element cap.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple

from .exact import _as_int, _poly_mul, _poly_rem
from .primes import factor, is_prime

Q_CAP = 121
CLOSURE_CAP = 10**6
TENSOR_DEGREE_CAP = 10


class CapExceeded(ValueError):
    pass


class SizeOverflow(Exception):
    pass


class Inconsistent(ValueError):
    pass


# ---------------------------------------------------------------------------
# small finite fields


def _poly_mul_mod(a, b, mod, p):
    # exact over Z before the final reduction, as mod is monic
    return [c % p for c in _poly_rem(_poly_mul(a, b), mod)]


def _poly_is_irreducible(f, p) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    for deg in range(1, (len(f) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(c % p for c in _poly_rem(f, list(tail) + [1])):
                return False
    return True


class Fq:
    """The finite field with q = p^r elements, q <= 121, table arithmetic."""

    def __init__(self, p: int, r: int = 1, modulus=None):
        p, r = _as_int(p, "p"), _as_int(r, "r")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError(f"r = {r} must be at least 1")
        q = p**r
        if q > Q_CAP:
            raise ValueError(f"q = {q} exceeds the supported cap {Q_CAP}")
        self.p = p
        self.r = r
        self.q = q
        if modulus is not None:
            modulus = tuple(_as_int(c, "modulus coefficient") % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            # at r = 1 every monic linear modulus x - a gives F_p itself
            if r > 1 and not _poly_is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
        else:
            self.modulus = (0, 1) if r == 1 else self._find_modulus(p, r)
        self._build_tables()

    @staticmethod
    def _find_modulus(p, r):
        """Deterministic primitive irreducible modulus: smallest by encoding."""
        for enc in range(p**r):
            tail = [(enc // p**i) % p for i in range(r)]
            f = tail + [1]
            if not _poly_is_irreducible(f, p):
                continue
            # primitivity: the residue class of x generates the units
            q = p**r
            x = [0, 1] + [0] * (r - 2) if r >= 2 else [1]
            ok = True
            for ell in factor(q - 1):
                # x^((q-1)/ell) != 1
                e = (q - 1) // ell
                acc = [1] + [0] * (r - 1)
                base = list(x) + [0] * (r - len(x))
                ee = e
                while ee:
                    if ee & 1:
                        acc = _poly_mul_mod(acc, base, f, p)
                    base = _poly_mul_mod(base, base, f, p)
                    ee >>= 1
                if acc == [1] + [0] * (r - 1):
                    ok = False
                    break
            if ok:
                return tuple(f)
        raise RuntimeError("no primitive modulus found")

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q

        def decode(e):
            return [(e // p**i) % p for i in range(r)]

        def encode(v):
            return sum(c % p * p**i for i, c in enumerate(v))

        self._decode = decode
        self._encode = encode
        if r == 1:
            self.add_table = None
            self.mul_table = None
        else:
            mod = list(self.modulus)
            self.add_table = [
                [encode([(x + y) % p for x, y in zip(decode(a), decode(b))])
                 for b in range(q)] for a in range(q)
            ]
            self.mul_table = [
                [encode(_poly_mul_mod(decode(a), decode(b), mod, p))
                 for b in range(q)] for a in range(q)
            ]
        self.inv_table = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul(a, b) == 1:
                    self.inv_table[a] = b
                    break

    # element arithmetic on encoded ints
    def add(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.r == 1:
            return (-a) % self.p
        return self._encode([(-c) % self.p for c in self._decode(a)])

    def mul(self, a, b):
        if self.r == 1:
            return a * b % self.p
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.inv_table[a]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return range(self.q)

    def in_subfield(self, a, s: int) -> bool:
        """Membership in F_{p^s} (s | r): fixed by the s-th Frobenius power."""
        return self.pow(a, self.p**s) == a

    def subfield_size(self, elems) -> int:
        """Size p^s of the smallest subfield containing all of elems."""
        for s in sorted(d for d in range(1, self.r + 1) if self.r % d == 0):
            if all(self.in_subfield(a, s) for a in elems):
                return self.p**s
        return self.q

    def __repr__(self):
        return f"Fq({self.p}^{self.r})"


# ---------------------------------------------------------------------------
# 2x2 matrices over Fq: tuples (a, b, c, d) of encoded elements


def mat_mul2(F: Fq, m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f), F.mul(d, h)),
    )


def mat_det2(F: Fq, m):
    a, b, c, d = m
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat_inv2(F: Fq, m):
    a, b, c, d = m
    det = mat_det2(F, m)
    di = F.inv(det)
    return (F.mul(d, di), F.mul(F.neg(b), di), F.mul(F.neg(c), di), F.mul(a, di))


def mat_id2(F: Fq):
    return (1, 0, 0, 1)


def proj_canonical(F: Fq, m):
    """Canonical representative of a matrix modulo scalars."""
    for x in m:
        if x != 0:
            xi = F.inv(x)
            return tuple(F.mul(xi, y) for y in m)
    raise ValueError("zero matrix")


class FqMatrixGroup:
    """The subgroup of GL2(F_q) generated by invertible 2x2 matrices.

    Equal when the field and the generators are; mutable, so unhashable.
    """

    __slots__ = ("field", "generators", "_closure")
    __hash__ = None

    def __init__(self, field: Fq, generators):
        self.field = field
        self.generators = tuple(tuple(m) for m in generators)
        for m in self.generators:
            if mat_det2(field, m) == 0:
                raise ValueError(f"generator {m} is singular")
        self._closure = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.generators) == (other.field, other.generators)

    def __repr__(self):
        return f"FqMatrixGroup(field={self.field!r}, generators={self.generators!r})"

    def closure(self, cap: int = CLOSURE_CAP) -> frozenset:
        """Full subgroup by breadth-first closure, cached; cap holds on every call."""
        if self._closure is not None:
            if len(self._closure) > cap:
                raise CapExceeded(f"closure exceeded {cap} elements")
            return self._closure
        F = self.field
        ident = mat_id2(F)
        seen = {ident}
        frontier = [ident]
        gens = list(self.generators)
        # include inverses so the closure is a group even mid-stream
        gens += [mat_inv2(F, g) for g in self.generators]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = mat_mul2(F, m, g)
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
                        if len(seen) > cap:
                            raise CapExceeded(f"closure exceeded {cap} elements")
            frontier = nxt
        self._closure = frozenset(seen)
        return self._closure


# ---------------------------------------------------------------------------
# classification


class Classification(namedtuple("Classification",
                                "kind parameter projective_order trace_field_size",
                                defaults=(None, None, None))):
    """kind is Reducible, Dihedral, A4, S4, A5, PSL2, PGL2 or LargeIntermediate;
    parameter is n for Dihedral and q' for PSL2 and PGL2."""

    __slots__ = ()

    def __str__(self):
        if self.kind == "Dihedral":
            return f"Dihedral({self.parameter})"
        if self.kind in ("PSL2", "PGL2"):
            return f"{self.kind}({self.parameter})"
        return self.kind


_A4_STATS = {1: 1, 2: 3, 3: 8}
_S4_STATS = {1: 1, 2: 9, 3: 8, 4: 6}
_A5_STATS = {1: 1, 2: 15, 3: 20, 5: 24}


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // math.gcd(2, q - 1)


def pgl2_order(q: int) -> int:
    return q * (q * q - 1)


def _span_dimension(F: Fq, mats) -> int:
    """F_q-dimension of the span of the given matrices inside M2."""
    basis = []
    for m in mats:
        v = list(m)
        for b in basis:
            piv = next(i for i in range(4) if b[i] != 0)
            if v[piv] != 0:
                f = F.mul(v[piv], F.inv(b[piv]))
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, b)]
        if any(v):
            piv = next(i for i in range(4) if v[i] != 0)
            vi = F.inv(v[piv])
            basis.append([F.mul(vi, x) for x in v])
            if len(basis) == 4:
                return 4
    return len(basis)


def _projective_group(F: Fq, elems):
    return frozenset(proj_canonical(F, m) for m in elems)


def _proj_element_orders(F: Fq, proj_elems):
    ident = proj_canonical(F, mat_id2(F))
    orders = {}
    for m in proj_elems:
        k = 1
        cur = m
        while cur != ident:
            cur = proj_canonical(F, mat_mul2(F, cur, m))
            k += 1
        orders[m] = k
    return orders


def classify_projective_image(group: FqMatrixGroup,
                              cap: int = CLOSURE_CAP) -> Classification:
    """Classification of the image in PGL2 along the standard trichotomy.

    Absolutely reducible groups are those whose enveloping algebra has
    dimension < 4 (equivalently a common eigenvector over the quadratic
    extension exists).  Otherwise the projective order decides: divisible
    by p leads to a subfield PSL2/PGL2, prime to p to dihedral or one of
    the three exceptional groups, told apart by element-order statistics.
    """
    F = group.field
    elems = group.closure(cap)
    if _span_dimension(F, elems) < 4:
        return Classification("Reducible")
    proj = _projective_group(F, elems)
    n = len(proj)
    traces = {F.add(m[0], m[3]) for m in elems}
    tf = F.subfield_size(traces)
    if n % F.p == 0:
        # subfield line groups: match the projective order
        for s in (d for d in range(1, F.r + 1) if F.r % d == 0):
            qp = F.p**s
            if n == psl2_order(qp):
                return Classification("PSL2", qp, n, tf)
            if n == pgl2_order(qp):
                return Classification("PGL2", qp, n, tf)
    orders = _proj_element_orders(F, proj)
    stats = Counter(orders.values())
    # each statistic fixes the order; with p in {2, 3, 5} it may be divisible
    # by p without a subfield group (A5 in characteristic 3, say)
    for name, ref in (("A4", _A4_STATS), ("S4", _S4_STATS), ("A5", _A5_STATS)):
        if stats == ref:
            return Classification(name, None, n, tf)
    # dihedral: a cyclic subgroup of index 2, normal as every subgroup of
    # index 2 is, so an element of order n / 2 suffices
    if n % F.p and n % 2 == 0 and n // 2 in orders.values():
        return Classification("Dihedral", n // 2, n, tf)
    return Classification("LargeIntermediate", None, n, tf)


# ---------------------------------------------------------------------------
# large-image detection


def _derived_subgroup(F: Fq, gens):
    """G' for the finite group G = <gens>: the normal closure of the
    commutators of pairs of generators (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005).  Conjugates of the subgroup's
    generators by those of G join them until the closure absorbs them all.
    """
    inv = {g: mat_inv2(F, g) for g in gens}
    sub_gens = {mat_mul2(F, mat_mul2(F, a, b), mat_mul2(F, inv[a], inv[b]))
                for a, b in itertools.combinations(gens, 2)}
    while True:
        sub = FqMatrixGroup(F, tuple(sub_gens)).closure()
        extra = {mat_mul2(F, mat_mul2(F, g, s), inv[g])
                 for g in gens for s in sub_gens} - sub
        if not extra:
            return sub
        sub_gens |= extra


def li_check(group: FqMatrixGroup, cap: int = CLOSURE_CAP) -> int | None:
    """q' if SL2(F_q') <= group <= scalars * GL2(F_q') up to conjugation.

    The derived subgroup, a normal closure (see _derived_subgroup), must be
    a conjugate of SL2(F_q') with the same conjugation putting the whole
    group inside scalar multiples of GL2(F_q').  SL2(F_2) and SL2(F_3) are
    not perfect (derived subgroups C3 and Q8), so for p <= 3 a group whose
    derived subgroup has no SL2 order is searched for SL2(F_p) among its
    determinant-one elements.  At q' = q the order count decides; only for
    q' < q, and when Lagrange allows it, is a conjugator brute-forced over
    GL2 of the ambient field.
    """
    F = group.field
    elems = group.closure(cap)
    derived = _derived_subgroup(F, group.generators)
    size = len(derived)
    q_cand = None
    for s in (d for d in range(1, F.r + 1) if F.r % d == 0):
        qp = F.p**s
        if size == qp * (qp * qp - 1):
            q_cand = qp
            break
    witness = derived
    if q_cand is None:
        if F.p > 3:
            return None
        q_cand = F.p
        witness = [m for m in elems if mat_det2(F, m) == 1]
    # the witnesses that conjugate into SL2(F_q') form a subgroup of it,
    # which is all of it when no more than misses_allowed of them fail;
    # by Lagrange its order then divides the witnesses' count
    order = q_cand * (q_cand * q_cand - 1)
    if len(witness) % order:
        return None
    misses_allowed = len(witness) - order
    if q_cand == F.q:  # the search would accept the first invertible matrix
        return q_cand
    s = round(math.log(q_cand, F.p))

    def in_subfield_mat(m):
        return all(F.in_subfield(x, s) for x in m)

    def is_scalar_multiple_of_subfield(m):
        for lam in range(1, F.q):
            li = F.inv(lam)
            if all(F.in_subfield(F.mul(li, x), s) for x in m):
                return True
        return False

    # candidate conjugators: all of GL2(F); early exit once too many fail
    witness_list = sorted(witness)
    elems_list = sorted(elems)
    for c in itertools.product(range(F.q), repeat=4):
        if mat_det2(F, c) == 0:
            continue
        ci = mat_inv2(F, c)
        misses = 0
        for m in witness_list:
            t = mat_mul2(F, mat_mul2(F, ci, m), c)
            if not in_subfield_mat(t) or mat_det2(F, t) != 1:
                misses += 1
                if misses > misses_allowed:
                    break
        if misses > misses_allowed:
            continue
        ok = True
        for m in elems_list:
            t = mat_mul2(F, mat_mul2(F, ci, m), c)
            if not is_scalar_multiple_of_subfield(t):
                ok = False
                break
        if ok:
            return q_cand
    return None


# ---------------------------------------------------------------------------
# tensor induction


class _IntRing:
    """Plain Python arithmetic (ints, Fractions, complex) as a ring object."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b


ZZ_RING = _IntRing()


def tensor_induce(mats, perm, ring=ZZ_RING):
    """Matrix on the 2^d tensor basis: slot t of the output is mats[t]
    applied to input slot perm[t].

    Basis vectors are bit tuples with slot 0 most significant, so the
    identity permutation yields the Kronecker product of the mats.
    """
    mats = [tuple(tuple(row) for row in m) for m in mats]
    d = len(mats)
    if d > TENSOR_DEGREE_CAP:
        raise SizeOverflow(f"degree {d} exceeds cap {TENSOR_DEGREE_CAP}")
    perm = tuple(_as_int(x, "perm entry") for x in perm)
    if sorted(perm) != list(range(d)):
        raise ValueError("perm must be a permutation of the slots")
    size = 1 << d
    out = []
    for bout in range(size):
        bits_out = [(bout >> (d - 1 - t)) & 1 for t in range(d)]
        row = []
        for bin_ in range(size):
            bits_in = [(bin_ >> (d - 1 - t)) & 1 for t in range(d)]
            val = ring.one
            for t in range(d):
                val = ring.mul(val, mats[t][bits_out[t]][bits_in[perm[t]]])
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def tensor_compose(pair1, pair2, ring=ZZ_RING):
    """Composition data for tensor induction: applying (mats1, perm1) then
    reading its product with (mats2, perm2) as a single induced operator.

    tensor_induce(*pair1) @ tensor_induce(*pair2) equals
    tensor_induce(*tensor_compose(pair1, pair2)).
    """
    mats1, perm1 = pair1
    mats2, perm2 = pair2
    d = len(mats1)
    mats = []
    for t in range(d):
        a = mats1[t]
        b = mats2[perm1[t]]
        prod = tuple(
            tuple(
                ring.add(ring.mul(a[i][0], b[0][j]), ring.mul(a[i][1], b[1][j]))
                for j in range(2)
            )
            for i in range(2)
        )
        mats.append(prod)
    perm = tuple(perm2[perm1[t]] for t in range(d))
    return mats, perm


def tensor_matmul(a, b, ring=ZZ_RING):
    n = len(a)
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = ring.zero
            for x, y in zip(row, col):
                acc = ring.add(acc, ring.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


# ---------------------------------------------------------------------------
# weight recovery from subset sums


def recover_from_subset_sums(S, d: int) -> tuple[int, tuple[int, ...]]:
    """Recover (a, parts) from the multiset of d-fold complementary sums.

    S must be the multiset over subsets J of sum_J (a - a_t) + sum_Jc a_t
    for d integers 0 <= 2 a_t < a.  Peels the shifted multiset as subset
    sums of the d positive gaps a - 2 a_t.
    """
    d = _as_int(d, "d")
    if d < 1:
        raise Inconsistent(f"d = {d} must be at least 1")
    S = sorted(_as_int(x, "subset sum") for x in S)
    if len(S) != 1 << d:
        raise Inconsistent(f"expected {1 << d} values, got {len(S)}")
    total = S[0] + S[-1]
    if total % d != 0:
        raise Inconsistent(f"(min+max)/d = {total}/{d} is not an integer")
    a = total // d
    base = S[0]
    shifted = [x - base for x in S]
    gaps = []
    explained = [0]
    remaining = shifted[1:]
    for _ in range(d):
        if not remaining:
            raise Inconsistent("ran out of values while peeling gaps")
        g = remaining[0]
        if g <= 0:
            raise Inconsistent("nonpositive gap")
        gaps.append(g)
        new_explained = sorted(explained + [x + g for x in explained])
        # remove the newly explained sums from the remaining multiset
        remaining_new = []
        pool = sorted(x + g for x in explained)
        idx = 0
        for x in remaining:
            if idx < len(pool) and x == pool[idx]:
                idx += 1
            else:
                remaining_new.append(x)
        if idx != len(pool):
            raise Inconsistent("subset sums do not peel consistently")
        explained = new_explained
        remaining = remaining_new
    if remaining:
        raise Inconsistent("unexplained values remain")
    parts = []
    for g in gaps:
        if (a - g) % 2 != 0:
            raise Inconsistent(f"gap {g} has wrong parity against a={a}")
        at = (a - g) // 2
        if not 0 <= 2 * at < a:
            raise Inconsistent(f"part {at} out of range for a={a}")
        parts.append(at)
    parts = tuple(sorted(parts))
    # regeneration check
    regen = sorted(
        sum((a - parts[t]) if (mask >> t) & 1 else parts[t] for t in range(d))
        for mask in range(1 << d)
    )
    if regen != S:
        raise Inconsistent("regenerated subset sums do not reproduce the input")
    return a, parts


# ---------------------------------------------------------------------------
# tame characters


class TameChar(namedtuple("TameChar", "h p e")):
    """Character of tame inertia of level h: exponent digits base p."""

    __slots__ = ()

    def __new__(cls, h: int, p: int, e: tuple[int, ...]):
        if len(e) != h:
            raise ValueError("exponent vector length must equal the level")
        return super().__new__(cls, h, p, e)

    @property
    def exponent(self) -> int:
        mod = self.p**self.h - 1
        return sum(ei * self.p**i for i, ei in enumerate(self.e)) % mod


def tame_char_order(c: TameChar) -> int:
    """Multiplicative order of the character; 0 when the exponent vanishes."""
    mod = c.p**c.h - 1
    e = c.exponent
    if e == 0:
        return 0
    return mod // math.gcd(e, mod)
