"""Exact lattice linear algebra over the integers with p-local readouts.

Integer matrices are tuples of tuples of ints, row vectors spanning the
lattice.  The elimination core is integer-only.  A rational solve goes
through one fraction-free Gauss-Jordan (_solve), except in the quotient
step, where _relation_matrix substitutes against the upper-triangular
Hermite bases that split_lattice has already made.  Every Hermite form goes
through hnf, or through _hnf_mod (modulo the determinant) when the matrix
is square and nonsingular, and every Smith form through _smith, which
repeats _hnf_mod on transposes.  A rational lattice is an integer matrix
with one common denominator.  fractions.Fraction appears only at the Split
input, whose bases are cleared to integers once, in det_rational and in
disc_pairing.  find_congruences works on integers in ambient coordinates:
the integer roots of each operator's characteristic polynomial come from
the integer Sturm chain, and an eigenspace inside span(w) is a left kernel
of w*op - lam*w.  The Bareiss determinant, _solve, _charpoly and the Sturm
chain live in exact, which the number-field module shares.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import _as_int, _charpoly, _sign_at, _solve, _sturm_chain, bareiss_det
from .primes import is_prime


class DegenerateSplit(ValueError):
    pass


class FusionMismatch(Exception):
    """The three congruence-module quotients disagree; indicates a bug."""


class NotCommuting(ValueError):
    pass


class NotStable(ValueError):
    pass


class SupportViolation(Exception):
    pass


IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> tuple[tuple, ...]:
    return tuple(tuple(r) for r in rows)


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det_rational(m) -> Fraction:
    """Determinant of a rational matrix: Bareiss on m times its common denominator."""
    rows, den = _scale_to_int([[Fraction(x) for x in row] for row in m])
    return Fraction(bareiss_det(rows), den ** len(rows))


def _transpose(m, ncols: int) -> list[list]:
    """Transpose of m, which has ncols columns (an empty m gives ncols [])."""
    return [[row[j] for row in m] for j in range(ncols)]


def _lowest_terms(m, den: int) -> tuple[IntMatrix, int]:
    """The rational matrix m/den over its least common denominator.

    Returns (m/g, den/g) with g = +-gcd(den, entries of m), signed so that
    den/g > 0: the pair _scale_to_int returns for m/den.
    """
    g = math.gcd(den, *(x for row in m for x in row))
    if den < 0:
        g = -g
    return _as_matrix(tuple(x // g for x in row) for row in m), den // g


def hnf(m) -> IntMatrix:
    """Row-style Hermite normal form with positive pivots.

    Returns the nonzero rows: a canonical basis of the integer row span.
    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    """
    a = [[_as_int(x, "matrix entry") for x in row] for row in m]
    if not a:
        return ()
    ncols = len(a[0])
    pivot_row = 0
    for col in range(ncols):
        # find a row at or below pivot_row with nonzero entry in col
        piv = None
        for i in range(pivot_row, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[pivot_row], a[piv] = a[piv], a[pivot_row]
        # eliminate below via gcd steps
        for i in range(pivot_row + 1, len(a)):
            while a[i][col] != 0:
                q = a[pivot_row][col] // a[i][col]
                for j in range(ncols):
                    a[pivot_row][j] -= q * a[i][j]
                a[pivot_row], a[i] = a[i], a[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        # reduce entries above the pivot
        p = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // p
            if q:
                for j in range(ncols):
                    a[i][j] -= q * a[pivot_row][j]
        pivot_row += 1
        if pivot_row == len(a):
            break
    return _as_matrix(row for row in a[:pivot_row])


def hnf_with_transform(m) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) with U unimodular, U*M = [H; 0] (H the nonzero HNF rows).

    The Hermite form of [M | I] is [U*M | U]: its rows with a pivot in M
    come first and give H, the rest have zero M-part.
    """
    a = _as_matrix(m)
    ncols = len(a[0]) if a else 0
    full = hnf(row + e for row, e in zip(a, _identity(len(a))))
    h = tuple(row[:ncols] for row in full if any(row[:ncols]))
    return h, tuple(row[ncols:] for row in full)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), for a, b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _hnf_mod(m, det: int) -> IntMatrix:
    """hnf(m) of a square nonsingular integer matrix, in bounded integers.

    det is a nonzero multiple of det(m).  The row span L contains R*Z^n for
    R = |det|, so rows are combined modulo R.  Once the pivot g of a column
    is fixed, the rest of L has a determinant dividing R/g, and R becomes
    R/g (Domich, Kannan & Trotter 1987; Cohen, Alg. 2.4.8).

    A row whose entry b in the pivot column is a multiple of the pivot
    entry p0 is cleared by one row update, row - (b // p0)*piv mod R; the
    other rows are merged into the pivot row by an extended-gcd combine.
    The pivot row then becomes u*piv mod R with g = gcd(p0, R) and u the
    inverse of p0/g modulo R/g: any u with u*p0 = g mod R gives a row of L
    with pivot g, and the final reduction makes the form canonical.
    """
    if not det:
        raise ValueError("singular matrix")
    r = abs(det)
    n = len(m)
    # a holds the rows still to be eliminated, restricted to columns >= i
    a = [[x % r for x in row] for row in m]
    h = []
    for i in range(n):
        piv = a[0]
        rest = []
        for row in a[1:]:
            b = row[0]
            if b:
                p0 = piv[0]
                if p0 and not b % p0:
                    q = b // p0
                    row = [(t - q * s) % r for s, t in zip(piv, row)]
                else:
                    g, u, v = _xgcd(p0, b)
                    x, y = p0 // g, b // g
                    piv, row = ([(u * s + v * t) % r for s, t in zip(piv, row)],
                                [(x * t - y * s) % r for s, t in zip(piv, row)])
            rest.append(row[1:])
        # the pivot row is u*piv + k*R*e_i: pivot gcd(piv[0], R), rest mod R
        g = math.gcd(piv[0], r)
        u = pow(piv[0] // g, -1, r // g)
        h.append([0] * i + [g] + [u * x % r for x in piv[1:]])
        if g > 1:
            r //= g
            rest = [[x % r for x in row] for row in rest]
        a = rest
    # reduce above the pivots: bottom-up, and left to right within a row,
    # so that a later subtraction never touches an entry already reduced
    for k in range(n - 2, -1, -1):
        hk = h[k]
        for i in range(k + 1, n):
            q = hk[i] // h[i][i]
            if q:
                hk[i:] = [x - q * y for x, y in zip(hk[i:], h[i][i:])]
    return _as_matrix(h)


def _smith(a) -> tuple[int, ...]:
    """Smith invariant factors of a square nonsingular upper-triangular matrix.

    While an entry above the diagonal is nonzero, a becomes the Hermite form
    of its transpose modulo det, the diagonal product; (gcd, lcm) swaps then
    order the diagonal.  The passes end: each keeps |det| and makes the first
    pivot the gcd of the first row, a divisor of the old pivot, and once the
    pivot divides its row the next form clears its row and column, and the
    argument repeats on the remaining block (Kannan & Bachem 1979).
    """
    n = len(a)
    det = math.prod(a[i][i] for i in range(n))
    if not det:
        raise ValueError("singular matrix")
    while any(any(row[i + 1:]) for i, row in enumerate(a)):
        a = _hnf_mod(_transpose(a, n), det)
    d = [abs(a[i][i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(d)


def snf(m) -> tuple[int, ...]:
    """Smith invariant factors d1 | d2 | ... of an integer matrix.

    Returns min(nrows, ncols) entries; trailing zeros mark rank deficiency.
    _smith takes the Hermite form of m, or of its transpose when that form
    is wider than tall: square, nonsingular, with the same invariants.
    """
    m = _as_matrix(m)
    a = hnf(m)
    if a and len(a) < len(a[0]):
        a = hnf(_transpose(a, len(a[0])))
    size = min(len(m), len(m[0])) if m else 0
    return _smith(a) + (0,) * (size - len(a))


def left_kernel(m) -> IntMatrix:
    """Basis of {y integer row : y*M = 0}; saturated by construction."""
    h, u = hnf_with_transform(m)
    rank = len(h)
    return _as_matrix(u[rank:])


class Lattice(namedtuple("Lattice", "basis ambient_dim")):
    """Full set of integer row vectors spanning L inside Q^n."""

    __slots__ = ()

    def __new__(cls, basis, ambient_dim: int):
        basis = tuple(tuple(_as_int(x, "lattice entry") for x in row) for row in basis)
        for row in basis:
            if len(row) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
        gram = mat_mul(basis, _transpose(basis, ambient_dim))
        if not bareiss_det(gram):
            raise ValueError("basis rows are linearly dependent")
        return super().__new__(cls, basis, ambient_dim)

    @property
    def rank(self) -> int:
        return len(self.basis)


class Split(namedtuple("Split", "v1_basis v2_basis")):
    """Complementary rational subspaces V1, V2 of Q^n, given by row bases."""

    __slots__ = ()

    def __new__(cls, v1_basis, v2_basis):
        v1, v2 = (tuple(tuple(Fraction(x) for x in r) for r in basis)
                  for basis in (v1_basis, v2_basis))
        self = super().__new__(cls, v1, v2)
        if self.dim1 + self.dim2 != self.ambient_dim:
            raise DegenerateSplit("dim V1 + dim V2 != ambient dimension")
        if det_rational(self.v1_basis + self.v2_basis) == 0:
            raise DegenerateSplit("V1 and V2 do not span complementary subspaces")
        return self

    @property
    def dim1(self) -> int:
        return len(self.v1_basis)

    @property
    def dim2(self) -> int:
        return len(self.v2_basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.v1_basis[0]) if self.v1_basis else len(self.v2_basis[0])


def coordinate_split(n: int, d1: int) -> Split:
    """Split of Q^n into the first d1 and the last n-d1 coordinates."""
    e = _identity(n)
    return Split(tuple(e[:d1]), tuple(e[d1:]))


def _scale_to_int(rows) -> tuple[IntMatrix, int]:
    """(integer matrix, common denominator) with int_matrix = denom * rows.

    The entries are ints or Fractions; denom is their least common denominator.
    """
    denom = math.lcm(1, *(x.denominator for row in rows for x in row))
    out = _as_matrix(tuple(x.numerator * (denom // x.denominator) for x in row)
                     for row in rows)
    return out, denom


class SplitPieces(namedtuple(
        "SplitPieces",
        "l1 l1_denom l2 l2_denom l1_proj l1_proj_denom l2_proj l2_proj_denom basis basis_denom")):
    """The four lattices of a split: L_j = L ∩ V_j, L^j = projection to V_j.

    Each piece is stored as an integer row basis in V_j-coordinates together
    with a common denominator: lattice = {rows} / denom in coordinates
    relative to the V_j basis.  Every piece is in Hermite form, and so is
    basis / basis_denom, the lattice L itself in (V1, V2)-coordinates, which
    the pieces determine and which equality and hashing therefore ignore.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:8] == other[:8]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:8])


def split_lattice(lat: Lattice, s: Split) -> SplitPieces:
    """Intersections and projections of L along V1 ⊕ V2."""
    n = lat.ambient_dim
    if s.ambient_dim != n:
        raise DegenerateSplit("split ambient dimension mismatch")
    if lat.rank != n:
        raise DegenerateSplit("lattice is not full rank in V1 ⊕ V2")
    p, p_den = _scale_to_int(s.v1_basis + s.v2_basis)
    # the coordinates of the basis rows in the (V1, V2) basis are
    # p_den * Y^T / d with P^T * Y = d * basis^T; as L = -L, coords / |d|
    # spans L too, and the denominators of the pieces stay positive
    d, y = _solve(_transpose(p, n), _transpose(lat.basis, n))
    coords = [[p_den * x for x in row] for row in zip(*y)]
    d, d1, d2 = abs(d), s.dim1, s.dim2
    det = bareiss_det(coords)
    # In the Hermite form of coords with the V1 columns first, the first d1
    # rows restricted to V1 are a basis of the projection L^1 and the other
    # rows restricted to V2 a basis of L ∩ V2; with V2 first, the same for
    # L^2 and L ∩ V1.  Blocks of a Hermite form are Hermite forms.  h1 spans
    # L with the same |det| and is nearly the identity, so the form with V2
    # first is made from its rows: most of their pivot-column entries are 0.
    h1 = _hnf_mod(coords, det)
    h2 = _hnf_mod([row[d1:] + row[:d1] for row in h1], det)
    p1, p1_den = _lowest_terms([row[:d1] for row in h1[:d1]], d)
    l2, l2_den = _lowest_terms([row[d1:] for row in h1[d1:]], d)
    p2, p2_den = _lowest_terms([row[:d2] for row in h2[:d2]], d)
    l1, l1_den = _lowest_terms([row[d2:] for row in h2[d2:]], d)
    return SplitPieces(l1, l1_den, l2, l2_den, p1, p1_den, p2, p2_den,
                       *_lowest_terms(h1, d))


def _relation_matrix(sub, sub_den: int, amb, amb_den: int) -> IntMatrix:
    """The integer X with sub/sub_den = X * amb/amb_den.

    amb must be upper triangular and nonsingular, as a Hermite form is:
    X * amb = sub * amb_den/sub_den is then solved by forward substitution.
    Raises ValueError when X is not integral, i.e. when the rows of
    sub/sub_den do not lie in the lattice spanned by amb/amb_den.
    """
    n = len(amb)
    g = math.gcd(sub_den, amb_den)
    num, den = amb_den // g, sub_den // g
    cols = list(zip(*amb))
    rows = []
    for srow in sub:
        # den * x * amb = num * srow; x is 0 before srow's first nonzero entry
        x = [0] * n
        start = next((j for j, v in enumerate(srow) if v), n)
        for j in range(start, n):
            t = num * srow[j] - den * sum(a * b for a, b in zip(x[start:j], cols[j][start:j]))
            x[j], r = divmod(t, den * amb[j][j])
            if r:
                raise ValueError("sublattice is not contained in ambient lattice")
        rows.append(tuple(x))
    return tuple(rows)


def _quotient_invariants(sub: IntMatrix, sub_den: int, amb: IntMatrix, amb_den: int):
    """Invariant factors of (amb/amb_den) / (sub/sub_den), both full rank.

    Both bases must be upper triangular: then so is the relation matrix X,
    whose Smith form _smith takes.
    """
    x = _relation_matrix(sub, sub_den, amb, amb_den)
    if any(m[i][j] for m in (amb, x) for i in range(len(m)) for j in range(i)):
        raise ValueError("basis or relation matrix is not upper triangular")
    return _smith(x)


def _as_prime(p) -> int:
    p = _as_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p


def _p_part(n: int, p: int) -> int:
    if n == 0:
        return 0
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


class CongruenceModule(namedtuple("CongruenceModule", "p invariant_factors three_way")):
    """p-parts of the invariant factors of the three fused quotients.

    three_way holds the p-parts of L^1/L_1, L/(L_1 ⊕ L_2) and L^2/L_2.
    """

    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return all(f == 1 for f in self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)


def congruence_modules(lat: Lattice, s: Split, primes) -> tuple[CongruenceModule, ...]:
    """The finite modules measuring failure of L to split along V1 ⊕ V2.

    Computes the three quotients L^1/L_1, L/(L_1 ⊕ L_2), L^2/L_2 once and,
    for each p in primes, asserts that their p-local invariant factors agree.
    Each p must be a prime integer.
    """
    primes = [_as_prime(p) for p in primes]
    pieces = split_lattice(lat, s)
    q1 = _quotient_invariants(pieces.l1, pieces.l1_denom,
                              pieces.l1_proj, pieces.l1_proj_denom)
    q2 = _quotient_invariants(pieces.l2, pieces.l2_denom,
                              pieces.l2_proj, pieces.l2_proj_denom)
    # middle quotient L / (L1 ⊕ L2) in (V1, V2)-coordinates, with L1 ⊕ L2 block diagonal
    den = math.lcm(pieces.l1_denom, pieces.l2_denom)
    c1, c2 = den // pieces.l1_denom, den // pieces.l2_denom
    sub = (tuple(tuple(c1 * x for x in row) + (0,) * s.dim2 for row in pieces.l1)
           + tuple((0,) * s.dim1 + tuple(c2 * x for x in row) for row in pieces.l2))
    qm = _quotient_invariants(sub, den, pieces.basis, pieces.basis_denom)

    out = []
    for p in primes:
        locals_ = tuple(tuple(_p_part(f, p) for f in q if _p_part(f, p) != 1)
                        for q in (q1, qm, q2))
        if not (locals_[0] == locals_[1] == locals_[2]):
            raise FusionMismatch(f"three-way quotients disagree at p={p}: {locals_}")
        out.append(CongruenceModule(p=p, invariant_factors=locals_[0], three_way=locals_))
    return tuple(out)


def congruence_module(lat: Lattice, s: Split, p: int) -> CongruenceModule:
    """The congruence module of L along V1 ⊕ V2 at the prime p."""
    return congruence_modules(lat, s, (p,))[0]


class DiscPairing(namedtuple("DiscPairing", "determinant pair_product pairs")):
    """pairs holds (J, J^c, g[J][J^c], g[J^c][J]) for each J containing index 0."""

    __slots__ = ()


def disc_pairing(gram, d: int) -> DiscPairing:
    """Discriminant of a pairing supported on complementary subset pairs.

    gram is a 2^d x 2^d rational matrix indexed by subsets of {0..d-1} as
    bitmasks; entry (J, J') must vanish unless J' is the complement of J.
    Returns det(gram) and checks it equals the product over complementary
    pairs {J, J^c} (J containing index 0) of -g[J][Jc] * g[Jc][J].
    """
    size = 1 << d
    g = [[Fraction(x) for x in row] for row in gram]
    if len(g) != size or any(len(r) != size for r in g):
        raise ValueError("gram matrix has wrong shape")
    full = size - 1
    for j in range(size):
        for jp in range(size):
            if jp != full ^ j and g[j][jp] != 0:
                raise SupportViolation(f"nonzero entry at non-complementary ({j},{jp})")
    det = det_rational(g)
    prod = Fraction(1)
    pairs = []
    for j in range(size):
        jc = full ^ j
        if not (j & 1):  # enumerate pairs by the subset containing index 0
            continue
        prod *= -g[j][jc] * g[jc][j]
        pairs.append((j, jc, g[j][jc], g[jc][j]))
    if det != prod:
        raise FusionMismatch(f"determinant {det} != pair product {prod}")
    return DiscPairing(det, prod, tuple(pairs))


# ---------------------------------------------------------------------------
# eigensystems and congruence detection


def _integer_roots(p) -> list[int]:
    """The distinct integer roots, ascending, of the integer polynomial p.

    p over the primitive part of its Sturm chain's last member, a multiple
    of gcd(p, p'), is its squarefree part s.  The cells (lo, hi] of (-B, B],
    B = 1 + max |c_i|, in which s has a root by Sturm's count (Basu, Pollack
    & Roy, Thm 2.50), are halved down to width 1: hi is a root when s(hi) = 0.
    The cost grows with log |root|, not with the constant term.
    """
    if len(p) < 2:
        return []
    chain = _sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        g, k, s = [c // math.gcd(*g) for c in g], len(g), []
        p = list(p)
        for i in range(len(p) - k, -1, -1):  # long division, exact by Gauss's lemma
            s.append(p[i + k - 1] // g[-1])
            p[i:i + k] = [x - s[-1] * y for x, y in zip(p[i:i + k], g)]
        p = s[::-1]
        chain = _sturm_chain(p)

    def variations(m):
        signs = [v for v in (_sign_at(q, m, 0) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in p[:-1])
    cells = [(-bound, bound, variations(-bound), variations(bound))]
    roots = []
    while cells:
        lo, hi, v_lo, v_hi = cells.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if not _sign_at(p, hi, 0):
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        cells += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


class Eigensystem(namedtuple("Eigensystem", "values dim")):
    """Integer eigenvalue vector (one entry per operator) on a subspace."""

    __slots__ = ()


class CongruenceSearch(namedtuple(
        "CongruenceSearch", "side1 side2 extension_needed1 extension_needed2 pairs module")):
    """The eigensystems of each side, the dimension of each side that integer
    eigenvalues do not split, and the pairs congruent mod module.p."""

    __slots__ = ()


def _split_eigensystems(ops, roots, w):
    """Common integer eigensystems of commuting integer matrices on span(w).

    roots holds the integer roots of each operator's characteristic
    polynomial.  The eigenspace of op for lam inside span(w) is y*w for y
    in the left kernel of w*op - lam*w.  Returns (systems, extension_dim)
    where extension_dim counts dimensions lost to eigenvalues outside the
    rational integers.
    """
    spaces = [(w, ())]
    ext_dim = 0
    for op, op_roots in zip(ops, roots):
        new_spaces = []
        for basis, vals in spaces:
            image = mat_mul(basis, op)
            covered = 0
            for lam in op_roots:
                ker = left_kernel(tuple(tuple(x - lam * y for x, y in zip(ri, rb))
                                        for ri, rb in zip(image, basis)))
                if not ker:
                    continue
                new_spaces.append((mat_mul(ker, basis), vals + (lam,)))
                covered += len(ker)
            ext_dim += len(basis) - covered
        spaces = new_spaces
    systems = tuple(Eigensystem(values=vals, dim=len(basis))
                    for basis, vals in spaces)
    return systems, ext_dim


def find_congruences(ops, lat: Lattice, s: Split, p: int) -> CongruenceSearch:
    """Congruent integer eigensystem pairs across a stable split, mod p.

    Each operator is an integer matrix that must preserve the lattice and
    both subspaces, and the operators must commute pairwise.  Eigensystems
    whose eigenvalues are not rational integers are counted in
    extension_needed rather than enumerated.
    """
    return _find_congruences(ops, lat, s, (p,))[0]


def _find_congruences(ops, lat: Lattice, s: Split, primes) -> tuple[CongruenceSearch, ...]:
    """find_congruences at each of primes, in order.

    The checks, the eigensystems and the split do not depend on p: each is
    made once.  A span is op-stable exactly when adding its rows' images
    keeps its Hermite form (for L) or its rank (for V_j).
    """
    primes = [_as_prime(p) for p in primes]
    ops = [tuple(tuple(_as_int(x, "operator entry") for x in row) for row in op)
           for op in ops]
    n = lat.ambient_dim
    if any(len(op) != n or any(len(row) != n for row in op) for op in ops):
        raise ValueError(f"operator is not {n}x{n}")
    for a in ops:
        for b in ops:
            if mat_mul(a, b) != mat_mul(b, a):
                raise NotCommuting("operators do not commute")
    h = hnf(lat.basis)
    if any(hnf(h + mat_mul(h, op)) != h for op in ops):
        raise NotStable("operator does not preserve the lattice")
    w1, w2 = (_scale_to_int(b)[0] for b in (s.v1_basis, s.v2_basis))
    for w in (w1, w2):
        if any(len(hnf(w + mat_mul(w, op))) != len(w) for op in ops):
            raise NotStable("operator does not preserve the subspace")
    roots = [_integer_roots(_charpoly(op)) for op in ops]
    side1, ext1 = _split_eigensystems(ops, roots, w1)
    side2, ext2 = _split_eigensystems(ops, roots, w2)
    out = []
    for module in congruence_modules(lat, s, primes):
        pairs = tuple((e1, e2) for e1 in side1 for e2 in side2
                      if all((a - b) % module.p == 0 for a, b in zip(e1.values, e2.values)))
        out.append(CongruenceSearch(side1, side2, ext1, ext2, pairs, module))
    return tuple(out)
