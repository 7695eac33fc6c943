"""Oracles for the lattice tests that production code does not use.

localized_module_nonzero reads the congruence module's generalized
eigenspaces over F_p with its own small F_p linear algebra, split_indices
gives the indices [L : L_1 ⊕ L_2] and [L^1 ⊕ L^2 : L] from determinants,
three_way_by_solve computes the three congruence quotients with a
Bareiss solve and determinant each, the middle one in ambient coordinates,
in_row_span tests lattice membership from a fresh Hermite form by
substitution (_in_hnf_span), snf_pivot_search takes Smith forms by row and
column pivoting, and split_lattice_from_coords makes both Hermite forms of
split_lattice from the lattice's (V1, V2)-coordinates, the second without
reusing the first.

find_congruences_by_restriction is the rational route to find_congruences:
each operator restricted to each subspace by a solve (_restrict), one
Fraction characteristic polynomial per subspace, and integer roots by trial
of every divisor of the constant term (integer_roots_by_divisors).
integer_roots_by_integer_cells finds integer roots by its own Sturm-count
loop over integer cells, halved down to width 1.
"""

import math
from fractions import Fraction

from hmfcert.exact import _charpoly, _poly_eval, _sign_at, _sturm_chain
from hmfcert.lattice import (
    CongruenceSearch,
    Eigensystem,
    Lattice,
    NotStable,
    Split,
    SplitPieces,
    _hnf_mod,
    _identity,
    _lowest_terms,
    _p_part,
    _scale_to_int,
    _solve,
    _transpose,
    bareiss_det,
    congruence_module,
    hnf,
    left_kernel,
    mat_mul,
    split_lattice,
)


def snf_pivot_search(m) -> tuple[int, ...]:
    """Smith invariant factors by pivot search on unbounded integers: for
    inputs too large for the minors oracle.

    Returns min(nrows, ncols) entries; trailing zeros mark rank deficiency.
    """
    a = [list(map(int, row)) for row in m]
    if not a or not a[0]:
        return ()
    nr, nc = len(a), len(a[0])
    k = 0
    size = min(nr, nc)
    result = []
    while k < size:
        # find a nonzero pivot in the trailing block
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        a[k], a[i0] = a[i0], a[k]
        for row in a:
            row[k], row[j0] = row[j0], row[k]
        while True:
            # clear column k: reduce entries modulo the pivot; a nonzero
            # remainder becomes the new (strictly smaller) pivot
            restart = False
            for i in range(k + 1, nr):
                if a[i][k] == 0:
                    continue
                q = a[i][k] // a[k][k]
                for j in range(k, nc):
                    a[i][j] -= q * a[k][j]
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    restart = True
                    break
            if restart:
                continue
            # clear row k with column operations, same discipline
            for j in range(k + 1, nc):
                if a[k][j] == 0:
                    continue
                q = a[k][j] // a[k][k]
                for row in a:
                    row[j] -= q * row[k]
                if a[k][j] != 0:
                    for row in a:
                        row[k], row[j] = row[j], row[k]
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the trailing block; if not, fold the
            # offending row in and reduce again
            offender = None
            p = a[k][k]
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender:
                    break
            if offender is None:
                break
            for j in range(k, nc):
                a[k][j] += a[offender][j]
        result.append(abs(a[k][k]))
        k += 1
    result += [0] * (size - len(result))
    # normalize: each entry divides the next (guaranteed by construction)
    return tuple(result)


def _in_hnf_span(vec, h) -> bool:
    """Integer membership of vec in the row span of the Hermite form h."""
    v = list(map(int, vec))
    ncols = len(v)
    for row in h:
        col = next(j for j in range(ncols) if row[j] != 0)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        for j in range(ncols):
            v[j] -= q * row[j]
    return all(x == 0 for x in v)


def in_row_span(vec, basis) -> bool:
    """Integer membership of vec in the lattice spanned by basis rows."""
    return _in_hnf_span(vec, hnf(basis))


def _restrict(op, basis):
    """Matrix C of the operator on span(basis) in that basis: C*basis = basis*op.

    Solved on the pivot columns of the basis, then checked on all columns.
    """
    b, _ = _scale_to_int(basis)
    o, o_den = _scale_to_int(op)
    img = mat_mul(b, o)  # = o_den * C * b
    cols = [next(j for j, x in enumerate(row) if x) for row in hnf(b)]
    d, y = _solve([[row[j] for row in b] for j in cols],
                  [[row[j] for row in img] for j in cols])
    c = _transpose(y, len(b))
    if mat_mul(c, b) != tuple(tuple(d * x for x in row) for row in img):
        raise NotStable("operator does not preserve the subspace")
    return tuple(tuple(Fraction(x, d * o_den) for x in row) for row in c)


def integer_roots_by_divisors(coeffs) -> list[int]:
    """The distinct integer roots of a rational polynomial, ascending, by
    trying every divisor of its lowest nonzero coefficient."""
    denom = math.lcm(1, *(Fraction(c).denominator for c in coeffs))
    ic = [int(c * denom) for c in coeffs]
    while ic and ic[-1] == 0:
        ic.pop()
    if not ic:
        return []
    roots = [0] if ic[0] == 0 else []
    while ic[0] == 0:
        ic = ic[1:]
    c0 = abs(ic[0])
    cands = set()
    for f in range(1, math.isqrt(c0) + 1):
        if c0 % f == 0:
            cands.update((f, -f, c0 // f, -(c0 // f)))
    return sorted(roots + [r for r in cands if _poly_eval(ic, r) == 0])


def integer_roots_by_integer_cells(p) -> list[int]:
    """The distinct integer roots, ascending, of the integer polynomial p.

    p over the primitive part of its Sturm chain's last member is its
    squarefree part s.  The cells (lo, hi] of (-B, B], B = 1 + max |c_i|, in
    which s has a root by Sturm's count are halved down to width 1: hi is a
    root when s(hi) = 0.
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


def _eigensystems_by_restriction(ops_restricted, dim):
    """(systems, extension_dim) of commuting rational dim x dim matrices."""
    spaces = [(_identity(dim), ())]
    ext_dim = 0
    for op in ops_restricted:
        new_spaces = []
        for basis, vals in spaces:
            sub = _restrict(op, basis)
            covered = 0
            for lam in integer_roots_by_divisors(_charpoly(sub)):
                shifted, _ = _scale_to_int(
                    [[x - lam if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(sub)])
                ker = left_kernel(shifted)
                if ker:
                    new_spaces.append((mat_mul(ker, basis), vals + (lam,)))
                    covered += len(ker)
            ext_dim += len(basis) - covered
        spaces = new_spaces
    return tuple(Eigensystem(vals, len(basis)) for basis, vals in spaces), ext_dim


def find_congruences_by_restriction(ops, lat: Lattice, s: Split, p: int) -> CongruenceSearch:
    """find_congruences for commuting integer operators, with each operator
    restricted to each subspace over the rationals."""
    h = hnf(lat.basis)
    for op in ops:
        if not all(_in_hnf_span(img, h) for img in mat_mul(lat.basis, op)):
            raise NotStable("operator does not preserve the lattice")
    sides = []
    for vbasis in (s.v1_basis, s.v2_basis):
        restricted = [_restrict(op, vbasis) for op in ops]
        sides.append(_eigensystems_by_restriction(restricted, len(vbasis)))
    (side1, ext1), (side2, ext2) = sides
    module = congruence_module(lat, s, p)
    pairs = tuple((e1, e2) for e1 in side1 for e2 in side2
                  if all((a - b) % p == 0 for a, b in zip(e1.values, e2.values)))
    return CongruenceSearch(side1, side2, ext1, ext2, pairs, module)


def split_lattice_from_coords(lat: Lattice, s: Split) -> SplitPieces:
    """split_lattice with each Hermite form made from the coordinates of
    lat.basis: the V2-first form is the form of the permuted coordinates."""
    n, d1, d2 = lat.ambient_dim, s.dim1, s.dim2
    p, p_den = _scale_to_int(s.v1_basis + s.v2_basis)
    d, y = _solve(_transpose(p, n), _transpose(lat.basis, n))
    coords = [[p_den * x for x in row] for row in zip(*y)]
    d, det = abs(d), bareiss_det(coords)
    h1 = _hnf_mod(coords, det)
    h2 = _hnf_mod([row[d1:] + row[:d1] for row in coords], det)
    p1, p1_den = _lowest_terms([row[:d1] for row in h1[:d1]], d)
    l2, l2_den = _lowest_terms([row[d1:] for row in h1[d1:]], d)
    p2, p2_den = _lowest_terms([row[:d2] for row in h2[:d2]], d)
    l1, l1_den = _lowest_terms([row[d2:] for row in h2[d2:]], d)
    return SplitPieces(l1, l1_den, l2, l2_den, p1, p1_den, p2, p2_den,
                       *_lowest_terms(h1, d))


def _ambient_rows(s: Split, pieces):
    """A V1 piece and a V2 piece, each (rows, denom) in V_j-coordinates, as
    rows in ambient coordinates: (integer rows, common denominator)."""
    p, p_den = _scale_to_int(s.v1_basis + s.v2_basis)
    den = p_den * math.lcm(*(bden for _, bden in pieces))
    out = []
    for (rows, bden), pj in zip(pieces, (p[:s.dim1], p[s.dim1:])):
        scale = den // (bden * p_den)
        out += [tuple(scale * x for x in row) for row in mat_mul(rows, pj)]
    return tuple(out), den


def relation_matrix_by_solve(sub, sub_den: int, amb, amb_den: int):
    """The integer X with sub/sub_den = X * amb/amb_den, for any square
    nonsingular amb, from one Bareiss solve; ValueError when X is not integral."""
    g = math.gcd(sub_den, amb_den)
    num, den = amb_den // g, sub_den // g
    d, y = _solve(_transpose(amb, len(amb)), _transpose(sub, len(amb)))
    rows = []
    for i in range(len(sub)):
        row = []
        for yrow in y:
            q, r = divmod(yrow[i] * num, d * den)
            if r:
                raise ValueError("sublattice is not contained in ambient lattice")
            row.append(q)
        rows.append(tuple(row))
    return tuple(rows)


def _invariants_by_solve(sub, sub_den, amb, amb_den):
    x = relation_matrix_by_solve(sub, sub_den, amb, amb_den)
    return snf_pivot_search(_hnf_mod(x, bareiss_det(x)))


def three_way_by_solve(lat: Lattice, s: Split, p: int):
    """The p-parts of the invariant factors of L^1/L_1, L/(L_1 ⊕ L_2) and
    L^2/L_2, with the middle quotient taken in ambient coordinates."""
    pieces = split_lattice(lat, s)
    sub, sub_den = _ambient_rows(s, ((pieces.l1, pieces.l1_denom),
                                     (pieces.l2, pieces.l2_denom)))
    quotients = (
        _invariants_by_solve(pieces.l1, pieces.l1_denom, pieces.l1_proj, pieces.l1_proj_denom),
        _invariants_by_solve(sub, sub_den, lat.basis, 1),
        _invariants_by_solve(pieces.l2, pieces.l2_denom, pieces.l2_proj, pieces.l2_proj_denom),
    )
    return tuple(tuple(_p_part(f, p) for f in q if _p_part(f, p) != 1) for q in quotients)


def split_indices(lat: Lattice, s: Split) -> tuple[int, int]:
    """Indices [L : L_1 ⊕ L_2] and [L^1 ⊕ L^2 : L]."""
    pieces = split_lattice(lat, s)
    n = lat.ambient_dim
    inner, inner_den = _ambient_rows(s, ((pieces.l1, pieces.l1_denom),
                                         (pieces.l2, pieces.l2_denom)))
    outer, outer_den = _ambient_rows(s, ((pieces.l1_proj, pieces.l1_proj_denom),
                                         (pieces.l2_proj, pieces.l2_proj_denom)))
    vol_l = abs(bareiss_det(lat.basis))
    idx_inner, r_inner = divmod(abs(bareiss_det(inner)), vol_l * inner_den**n)
    idx_outer, r_outer = divmod(vol_l * outer_den**n, abs(bareiss_det(outer)))
    assert r_inner == 0 and r_outer == 0
    return idx_inner, idx_outer


def localized_module_nonzero(ops, lat: Lattice, s: Split, p: int,
                             theta: tuple[int, ...]) -> bool:
    """Whether the congruence module has a nonzero generalized theta-eigenspace
    mod p for the induced operator action (desk-scale oracle)."""
    pieces = split_lattice(lat, s)
    # present L^1/L_1 with the induced action: work in V1 coordinates
    amb = pieces.l1_proj
    den_a = pieces.l1_proj_denom
    sub = pieces.l1
    den_s = pieces.l1_denom
    d1 = s.dim1
    # operator on V1 in the basis of L^1: the images of the rows of L^1,
    # written in that basis
    ops_v1 = []
    for op in ops:
        # in V1-basis coordinates
        r, r_den = _scale_to_int(_restrict(op, s.v1_basis))
        ops_v1.append(relation_matrix_by_solve(mat_mul(amb, r), den_a * r_den, amb, den_a))
    # relation matrix of L1 in terms of the basis of L^1
    rel = relation_matrix_by_solve(sub, den_s, amb, den_a)
    # quotient Z^d1 / rel with operator action ops_v1 (integer in this basis)
    # mod p: vector space (Z^d1 / rel + pZ^d1); compute its F_p dimension and
    # the action, then test a common generalized eigenspace for theta.
    rows = [[x % p for x in row] for row in rel] + \
           [[p if i == j else 0 for j in range(d1)] for i in range(d1)]
    # basis of the quotient: the free coordinates of F_p^d1 / rowspan(rows)
    span, piv_cols = _fp_rref(rows, p)
    free = [c for c in range(d1) if c not in piv_cols]
    quot_dim = len(free)
    if quot_dim == 0:
        return False
    # induced operators on the quotient
    mats = []
    for op in ops_v1:
        opm = [[x % p for x in row] for row in op]
        mats.append(_fp_quotient_operator(opm, free, span, p))
    # intersect generalized eigenspaces
    space = [[1 if i == j else 0 for j in range(quot_dim)] for i in range(quot_dim)]
    for m, lam in zip(mats, theta):
        shifted = [[(m[i][j] - (lam % p if i == j else 0)) % p
                    for j in range(quot_dim)] for i in range(quot_dim)]
        power = shifted
        for _ in range(quot_dim - 1):
            power = _fp_matmul(power, shifted, p)
        # vectors are rows: v * power = 0
        ker = _fp_kernel(_transpose(power, quot_dim), p, quot_dim)
        if not ker:
            return False
        # restrict the ambient space to this kernel: intersect
        space = _fp_intersect(space, ker, p)
        if not space:
            return False
    return True


# --- tiny F_p linear algebra used by localized_module_nonzero --------------


def _fp_matmul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _fp_rref(rows, p):
    """Reduced row echelon form over F_p: (nonzero rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    piv_cols = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    return m[:r], piv_cols


def _fp_kernel(m, p, nvars):
    """Kernel vectors v (length nvars) with m @ v = 0, m is rows x nvars."""
    red, piv_cols = _fp_rref(m, p)
    basis = []
    for fc in range(nvars):
        if fc in piv_cols:
            continue
        v = [0] * nvars
        v[fc] = 1
        for row, pc in zip(red, piv_cols):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    return basis


def _fp_reduce(vec, span, p):
    v = [x % p for x in vec]
    for row in span:
        c = next(cc for cc in range(len(row)) if row[cc] != 0)
        if v[c]:
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _fp_quotient_operator(opm, free, span, p):
    out = []
    for c in free:
        img = _fp_reduce(opm[c], span, p)  # image of the basis vector e_c
        out.append([img[f] for f in free])
    return out


def _fp_intersect(a_rows, b_rows, p):
    """Intersection of two F_p row spaces (Zassenhaus-style via kernels)."""
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    # x in span(a) ∩ span(b): x = u*A = v*B; solve [A^T | -B^T] kernel
    stacked = a_rows + [[-x % p for x in row] for row in b_rows]
    ker = _fp_kernel(_transpose(stacked, n), p, len(stacked))
    out = []
    for w in ker:
        u = w[: len(a_rows)]
        x = [sum(u[i] * a_rows[i][j] for i in range(len(a_rows))) % p
             for j in range(n)]
        if any(x):
            out.append(x)
    return _fp_rref(out, p)[0]
