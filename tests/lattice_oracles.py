"""Oracles for the lattice tests that production code does not use.

localized_module_nonzero reads the congruence module's generalized
eigenspaces over F_p with its own small F_p linear algebra, split_indices
gives the indices [L : L_1 ⊕ L_2] and [L^1 ⊕ L^2 : L] from determinants,
three_way_by_solve computes the three congruence quotients with a
Bareiss solve and determinant each, the middle one in ambient coordinates,
and in_row_span tests lattice membership from a fresh Hermite form.
"""

import math

from hmfcert.lattice import (
    Lattice,
    Split,
    _hnf_mod,
    _in_hnf_span,
    _p_part,
    _restrict,
    _scale_to_int,
    _solve,
    _transpose,
    bareiss_det,
    hnf,
    mat_mul,
    snf,
    split_lattice,
)


def in_row_span(vec, basis) -> bool:
    """Integer membership of vec in the lattice spanned by basis rows."""
    return _in_hnf_span(vec, hnf(basis))


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
    return snf(_hnf_mod(x, bareiss_det(x)))


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
