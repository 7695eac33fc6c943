"""Seeded inputs of the three workloads.

Everything here is plain data built from ``random.Random(seed)``; nothing
imports hmfcert, so the same seed gives the same inputs whatever the code
under test does with them.  Polynomials are low degree first, as hmfcert
takes them; units and field elements are power-basis coordinates.
"""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------------------
# fields and their Galois data (embedding indices in ascending root order)

CUBIC_NON_GALOIS = [1, -4, 0, 1]            # x^3 - 4x + 1, discriminant 229
CUBIC_CYCLIC = [-1, -3, 0, 1]               # x^3 - 3x - 1, Q(zeta_9)^+
QUINTIC_CYCLIC = [1, 3, -3, -4, 1, 1]       # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1, Q(zeta_11)^+
QUARTIC_BIQUADRATIC = [1, 0, -4, 0, 1]      # x^4 - 4x^2 + 1, Q(sqrt 2, sqrt 3)

# Each group is listed with the polynomials h_g that realise it
# (h_g(alpha_i) = alpha_{g(i)}); the oracles check both exactly.
GALOIS = {
    "cubic_cyclic": {
        "min_poly": CUBIC_CYCLIC,
        "perms": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "maps": [[0, 1], [2, 0, -1], [-2, -1, 1]],            # x, 2 - x^2, x^2 - x - 2
    },
    "quintic_cyclic": {
        "min_poly": QUINTIC_CYCLIC,
        "perms": [[0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [3, 0, 4, 2, 1],
                  [1, 4, 3, 0, 2], [2, 3, 1, 4, 0]],
        # the iterates of x -> x^2 - 2, reduced mod the minimal polynomial
        "maps": [[0, 1], [-2, 0, 1], [2, 0, -4, 0, 1], [0, -3, 0, 1], [-1, 2, 3, -1, -1]],
    },
    "quartic_klein": {
        "min_poly": QUARTIC_BIQUADRATIC,
        "perms": [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]],
        "maps": [[0, 1], [0, -1], [0, 4, 0, -1], [0, -4, 0, 1]],  # x, -x, 1/x, -1/x
    },
}

# Totally positive units of real quadratic fields Q(sqrt D), as coordinates
# in the basis (1, sqrt D) of Q[x]/(x^2 - D).
QUADRATIC_UNITS = {
    2: ["3", "2"],          # (1 + sqrt 2)^2
    3: ["2", "1"],
    6: ["5", "2"],
    7: ["8", "3"],
    13: ["11/2", "3/2"],
    17: ["33", "8"],        # (4 + sqrt 17)^2
}

# x^2 is a totally positive unit in the cubic, quartic and quintic fields above:
# their constant terms are +-1 and no root is 0.
def _x_squared(degree: int) -> list[str]:
    return ["0", "0", "1"] + ["0"] * (degree - 3)


# The level norm Delta only feeds the excluded set, never the norm kernels.
def _level(rng: random.Random) -> int:
    return rng.choice([1, 2, 3, 5]) * rng.choice([1, 4, 7, 11])


# ---------------------------------------------------------------------------
# certify_interval

# Precision cap for the Q(sqrt 2, sqrt 3) cases: every nonzero subset is
# certified at 128 bits, so 256 lets the exact-zero subsets escalate through
# three levels (64, 128, 256) before they report indeterminate.
QUARTIC_CAP = 256


def certify_cases(seed: int) -> list[dict]:
    """The certificates of one certify_interval round.

    The seed permutes the weight of the non-Galois cubic and of the S_5
    quintic, where the symmetrization group is the full symmetric group and
    every permutation does the same arithmetic in another order; it orders
    the fifteen weights with one or two 4s among 2s on the cyclic quintic,
    which cost the same within the host's noise, and it sets Delta.  The
    two Q(sqrt 2, sqrt 3) cases, whose exact-zero subsets fail, do not
    depend on the seed.
    """
    rng = random.Random(seed)
    cubic = {
        "label": "cubic_non_galois_dihedral",
        "min_poly": CUBIC_NON_GALOIS, "galois": None,
        "k": list(rng.choice(list(itertools.permutations((6, 4, 2))))),
        "units": [_x_squared(3)], "delta": _level(rng), "cap": 2**16,
        # K = F(sqrt 2) with the unit 1 + sqrt 2
        "quads": [{"delta": ["2"], "units": [[["1"], ["1"]]], "label": "Fsqrt2"}],
    }
    # every placement of one 4 and of two 4s among 2s, in seeded order
    placements = [(pos,) for pos in range(5)] + list(itertools.combinations(range(5), 2))
    cyclic = []
    for fours in rng.sample(placements, len(placements)):
        k = [4 if i in fours else 2 for i in range(5)]
        cyclic.append({
            "label": "quintic_cyclic_" + "".join(map(str, k)),
            "min_poly": QUINTIC_CYCLIC, "galois": GALOIS["quintic_cyclic"]["perms"],
            "k": k, "units": [_x_squared(5)], "delta": _level(rng),
            "cap": 2**16, "quads": [],
        })
    s5_k = [2, 2, 2, 2, 2]
    s5_k[rng.randrange(5)] = 4
    symmetric = {
        "label": "quintic_symmetric",
        "min_poly": QUINTIC_CYCLIC, "galois": None, "k": s5_k,
        "units": [_x_squared(5)], "delta": _level(rng), "cap": 2**16, "quads": [],
    }
    klein = {
        "label": "quartic_klein",
        "min_poly": QUARTIC_BIQUADRATIC, "galois": GALOIS["quartic_klein"]["perms"],
        "k": [4, 2, 2, 2], "units": [_x_squared(4)], "delta": 1,
        "cap": QUARTIC_CAP, "quads": [],
    }
    quartic_s4 = {
        "label": "quartic_symmetric",
        "min_poly": QUARTIC_BIQUADRATIC, "galois": None,
        "k": [4, 2, 2, 2], "units": [_x_squared(4)], "delta": 1,
        "cap": QUARTIC_CAP, "quads": [],
    }
    # The fifteen cyclic quintic certificates (0.2 s each) hold the median
    # operation.  They are spread around the 7-s S_5 certificate, so that
    # each round samples the host's speed over several seconds rather than
    # in one short burst.
    return [*cyclic[:5], cubic, *cyclic[5:9], klein, symmetric,
            *cyclic[9:12], quartic_s4, *cyclic[12:]]


def statuses_per_certificate(case: dict) -> int:
    """Subset statuses one certificate reports: irr masks plus dihedral masks."""
    d = len(case["k"])
    irr = (1 << d) - (2 if len(set(case["k"])) == 1 else 0)
    return irr + len(case["quads"]) * (1 << d)


# ---------------------------------------------------------------------------
# congruence_batch

PRIMES = (2, 3, 5, 7)
SMALL_LATTICES = 63
LARGE_DIMS = (12, 16, 20, 24)
GLUE_CASES = 20
LARGE_LATTICE_SEED = 20140825


def _det(rows) -> int:
    """Exact determinant by fraction-free elimination (corpus filtering only)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _random_lattice(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        if _det(rows) != 0:
            return rows


def _glue_case(rng: random.Random) -> dict:
    """A diagonal operator on Z^n, glued across the split exactly when asked.

    Gluing e_i + e_j with p e_j makes the eigenvalues at i and j congruent
    mod p, which is the only congruence the case can carry.
    """
    while True:
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        n = n1 + n2
        p = rng.choice(PRIMES)
        glued = rng.random() < 0.5
        vals: list[int] = []
        for _ in range(200):
            v = rng.randint(0, 6 * p)
            if all((v - u) % p for u in vals):
                vals.append(v)
            if len(vals) == n:
                break
        if len(vals) == n:
            break
    i, j = rng.randrange(n1), n1 + rng.randrange(n2)
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    if glued:
        vals[j] = vals[i] + p * rng.randint(1, 4)
        rows[i][j] = 1
        rows[j][j] = p
    op = [[vals[a] if a == b else 0 for b in range(n)] for a in range(n)]
    return {"lattice": rows, "d1": n1, "p": p, "ops": [op], "glued": glued}


def congruence_batch(seed: int) -> dict:
    """Lattices with their splits and primes, and the glue cases.

    The small lattices (nine for each n = 2..8), their splits and the glue
    cases follow the seed.
    The large lattices come from one fixed stream (the seed of the
    acceptance test's corpus), split in the middle: at n >= 20 the cost of
    one call depends on the lattice by up to 10x (see README.md), so drawing
    them per seed would make the slowest operation a draw of the corpus
    rather than a property of the code.
    """
    rng = random.Random(seed)
    lattices = []
    for i in range(SMALL_LATTICES):
        n = 2 + i % 7   # every n in 2..8 nine times, so the median call has a fixed n
        lattices.append({"rows": _random_lattice(rng, n), "d1": rng.randint(1, n - 1)})
    large = random.Random(LARGE_LATTICE_SEED)
    for n in LARGE_DIMS:
        lattices.append({"rows": _random_lattice(large, n), "d1": n // 2})
    return {"lattices": lattices, "primes": list(PRIMES),
            "glue": [_glue_case(rng) for _ in range(GLUE_CASES)]}


# ---------------------------------------------------------------------------
# cli_session

README_Q5 = {
    "field": {"min_poly": [-5, 0, 1], "galois": [[0, 1], [1, 0]], "units": [["3/2", "1/2"]]},
    "weight": {"k": [4, 2]},
    "level": {"Delta": 20, "h_F": 1},
    "criteria": {
        "quadratic_extensions": [{"delta": [3], "units": [[[2], [1]]], "label": "Fsqrt3"}],
        "fiber_partitions": [[[0, 1]]],
    },
    "output": {"format": "text", "precision_cap": 65536},
}

SL2_GENERATORS = ((1, 1, 0, 1), (1, 0, 1, 1))


def _conjugated_sl2(rng: random.Random, p: int) -> str:
    """The standard SL2(F_p) generators conjugated by a seeded matrix of GL2(F_p)."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        det = (a * d - b * c) % p
        if det:
            break
    inv_det = pow(det, -1, p)
    ia, ib, ic, id_ = d * inv_det, -b * inv_det, -c * inv_det, a * inv_det
    gens = []
    for g0, g1, g2, g3 in SL2_GENERATORS:
        # c^-1 g c with c = [[a, b], [c, d]]
        t0, t1 = ia * g0 + ib * g2, ia * g1 + ib * g3
        t2, t3 = ic * g0 + id_ * g2, ic * g1 + id_ * g3
        m = (t0 * a + t1 * c, t0 * b + t1 * d, t2 * a + t3 * c, t2 * b + t3 * d)
        gens.append(",".join(str(x % p) for x in m))
    return ";".join(gens)


def _quadratic_config(rng: random.Random, D: int) -> dict:
    k0 = rng.choice([4, 6, 8])
    k1 = rng.choice([k for k in range(2, k0, 2)])
    k = [k0, k1] if rng.random() < 0.5 else [k1, k0]
    return {
        "field": {"min_poly": [-D, 0, 1], "galois": [[0, 1], [1, 0]],
                  "units": [QUADRATIC_UNITS[D]]},
        "weight": {"k": k},
        "level": {"Delta": _level(rng)},
    }


def _cubic_config(rng: random.Random, poly: list[int], galois) -> dict:
    field = {"min_poly": poly, "units": [_x_squared(3)]}
    if galois is not None:
        field["galois"] = galois
    return {"field": field,
            "weight": {"k": list(rng.choice(list(itertools.permutations((4, 2, 2)))))},
            "level": {"Delta": _level(rng)}}


def cli_session(seed: int) -> dict:
    """Config files and argument lists of one CLI round, in running order.

    Each command is (name, argv, config or None); ``{config}`` in argv is
    replaced by the path the config is written to.
    """
    rng = random.Random(seed)
    weight_args = []
    for d in (2, 3, 4):
        k = [rng.choice([4, 6, 8])]
        k += [rng.choice(range(2, k[0] + 1, 2)) for _ in range(d - 1)]
        rng.shuffle(k)
        weight_args.append(",".join(map(str, k)))
    quad_ds = rng.sample(sorted(QUADRATIC_UNITS), 2)
    glue = _glue_case(rng)
    cm_cfg = {"lattice": glue["lattice"], "split": glue["d1"], "p": glue["p"],
              "ops": glue["ops"]}
    parts = sorted(rng.randrange(0, 5) for _ in range(2))
    a = rng.randint(2 * parts[-1] + 1, 2 * parts[-1] + 6)
    sums = sorted(sum((a - t) if (mask >> i) & 1 else t for i, t in enumerate(parts))
                  for mask in range(4))
    commands = []
    for k_arg in weight_args:
        commands.append(("weights", ["--format", "json", "weights", "--k", k_arg], None))
        commands.append(("bgg-table", ["--format", "json", "bgg-table", "--k", k_arg], None))
    return {
        "commands": commands + [
            ("exclude-primes/q5", ["--format", "json", "exclude-primes", "--config", "{config}"],
             README_Q5),
            (f"exclude-primes/D{quad_ds[0]}",
             ["--format", "json", "exclude-primes", "--config", "{config}"],
             _quadratic_config(rng, quad_ds[0])),
            (f"exclude-primes/D{quad_ds[1]}",
             ["--format", "json", "exclude-primes", "--config", "{config}"],
             _quadratic_config(rng, quad_ds[1])),
            ("exclude-primes/cubic-cyclic",
             ["--format", "json", "exclude-primes", "--config", "{config}"],
             _cubic_config(rng, CUBIC_CYCLIC, GALOIS["cubic_cyclic"]["perms"])),
            ("exclude-primes/cubic-non-galois",
             ["--format", "json", "exclude-primes", "--config", "{config}"],
             _cubic_config(rng, CUBIC_NON_GALOIS, None)),
            ("classify-image/F7", ["--format", "json", "classify-image", "--p", "7",
                                   "--gens", _conjugated_sl2(rng, 7)], None),
            ("classify-image/F13", ["--format", "json", "classify-image", "--p", "13",
                                    "--gens", _conjugated_sl2(rng, 13)], None),
            ("classify-image/F11-li", ["--format", "json", "classify-image", "--p", "11",
                                       "--gens", _conjugated_sl2(rng, 11), "--li"], None),
            ("congruence-module", ["--format", "json", "congruence-module",
                                   "--config", "{config}"], cm_cfg),
            ("adjoint-check", ["--seed", str(rng.randrange(10**6)), "--format", "json",
                               "adjoint-check", "--samples", "40"], None),
            ("recover-weights", ["--format", "json", "recover-weights", "--multiset",
                                 ",".join(map(str, sums)), "--d", "2"], None),
        ],
        "glued": glue["glued"],
    }
