"""The brute-force large-image routes that gl2img replaced, kept as oracles.

derived_subgroup_all_commutators forms [a, b] for every generator a and
every element b of the enumerated group, closes over all of them and makes
the result normal by conjugating every element of the subgroup.
li_check_search builds on it and searches GL2 of the ambient field for a
conjugator also when q' = q.  Both are slow (about 0.7 s on SL2(F_11))
and are meant for small groups only.

is_projectively_dihedral decides dihedral images without using that every
subgroup of index 2 is normal: it checks each cyclic subgroup of index 2 for
normality by conjugating every element.
"""

import itertools
import math

from hmfcert.gl2img import (
    CLOSURE_CAP,
    FqMatrixGroup,
    mat_det2,
    mat_id2,
    mat_inv2,
    mat_mul2,
    proj_canonical,
)


def derived_subgroup_all_commutators(F, elems, gens):
    """The commutator subgroup of the enumerated group."""
    comms = set()
    for a in gens:
        ai = mat_inv2(F, a)
        for b in elems:
            bi = mat_inv2(F, b)
            comms.add(mat_mul2(F, mat_mul2(F, a, b), mat_mul2(F, ai, bi)))
    # normal closure, iterated
    sub = FqMatrixGroup(F, tuple(comms)).closure()
    while True:
        extra = set()
        for g in gens:
            gi = mat_inv2(F, g)
            for s in sub:
                c = mat_mul2(F, mat_mul2(F, g, s), gi)
                if c not in sub:
                    extra.add(c)
        if not extra:
            return sub
        sub = FqMatrixGroup(F, tuple(sub | extra)).closure()


def li_check_search(group, cap=CLOSURE_CAP):
    """q' if SL2(F_q') <= group <= scalars * GL2(F_q') up to conjugation,
    with the conjugating matrix brute-forced over GL2 of the ambient field
    for every candidate q', q' = q included."""
    F = group.field
    elems = group.closure(cap)
    derived = derived_subgroup_all_commutators(F, elems, list(group.generators))
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
    misses_allowed = len(witness) - q_cand * (q_cand * q_cand - 1)
    if misses_allowed < 0:
        return None
    s = round(math.log(q_cand, F.p))

    def in_subfield_mat(m):
        return all(F.in_subfield(x, s) for x in m)

    def is_scalar_multiple_of_subfield(m):
        for lam in range(1, F.q):
            li = F.inv(lam)
            if all(F.in_subfield(F.mul(li, x), s) for x in m):
                return True
        return False

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


def is_projectively_dihedral(F, proj, orders, n) -> bool:
    """Whether the projective group proj of order n has a cyclic normal
    subgroup of index 2; orders maps each element of proj to its order."""
    half = n // 2
    candidates = [m for m, o in orders.items() if o == half]
    for x in candidates:
        cyc = set()
        cur = proj_canonical(F, mat_id2(F))
        for _ in range(half):
            cyc.add(cur)
            cur = proj_canonical(F, mat_mul2(F, cur, x))
        normal = all(
            proj_canonical(F, mat_mul2(F, mat_mul2(F, g, c), mat_inv2(F, g))) in cyc
            for g in proj for c in cyc
        )
        if normal:
            return True
    return False
