"""Command-line front end: configuration ingestion, dispatch, report emission.

Batch semantics only.  Exit codes: 0 success, 1 validation error,
2 partial certification (indeterminate or degenerate statuses only).
All randomness is seeded from --seed (default 0) so reports reproduce.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import random
import sys
from fractions import Fraction


def _lazy(name: str):
    """hmfcert.<name>, registered in sys.modules now and executed on first use."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# A command runs only the module bodies it uses.  Every module is registered
# here, exact included, so code that walks sys.modules after importing the
# CLI (the benchmark tracer) sees each one before any of them runs.
bgg, criteria, exact, gl2img, lattice, modform, nfield, primes, weights = map(
    _lazy, ("bgg", "criteria", "exact", "gl2img", "lattice", "modform", "nfield", "primes",
            "weights"))


class UsageError(Exception):
    pass


_FIELD_KEYS = {"min_poly", "galois", "units"}
_WEIGHT_KEYS = {"k"}
_LEVEL_KEYS = {"Delta", "h_F"}
_CRITERIA_KEYS = {"quadratic_extensions", "fiber_partitions"}
_OUTPUT_KEYS = {"format", "precision_cap"}
_TOP_KEYS = {"field", "weight", "level", "criteria", "output"}
_QEXT_KEYS = {"delta", "units", "label"}


def _check_keys(block, allowed: set, where: str, required: set = frozenset()):
    if not isinstance(block, dict):
        raise UsageError(f"{where} is not a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise UsageError(f"{where} lacks keys {sorted(missing)}")


def _fraction(x) -> Fraction:
    try:
        if isinstance(x, (str, int)) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, list) and len(x) == 2:
            return Fraction(exact._as_int(x[0], "rational numerator"),
                            exact._as_int(x[1], "rational denominator"))
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in rational {x!r}") from None
    raise UsageError(f"cannot parse rational from {x!r}")


def _list(x, where: str) -> list:
    """x, if it is a list."""
    if not isinstance(x, list):
        raise UsageError(f"{where} is not a list")
    return x


def _element(fld: nfield.Field, coeffs, where: str) -> nfield.FieldElem:
    return fld.element([_fraction(c) for c in _list(coeffs, where)])


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    _check_keys(cfg, _TOP_KEYS, "config")
    if "field" not in cfg or "weight" not in cfg:
        raise UsageError("config requires 'field' and 'weight' blocks")
    _check_keys(cfg["field"], _FIELD_KEYS, "field", required={"min_poly"})
    _check_keys(cfg["weight"], _WEIGHT_KEYS, "weight", required={"k"})
    _check_keys(cfg.get("level", {}), _LEVEL_KEYS, "level")
    _check_keys(cfg.get("criteria", {}), _CRITERIA_KEYS, "criteria")
    _check_keys(cfg.get("output", {}), _OUTPUT_KEYS, "output")
    for kd in _list(cfg.get("criteria", {}).get("quadratic_extensions", []),
                    "criteria quadratic_extensions"):
        _check_keys(kd, _QEXT_KEYS, "quadratic_extensions entry", required={"delta"})
    return cfg


def build_inputs(cfg: dict, precision_cap: int | None = None) -> criteria.CertificationInputs:
    galois = cfg["field"].get("galois")
    if galois is not None:
        galois = [_list(perm, "field galois entry") for perm in _list(galois, "field galois")]
    fld = nfield.make_field(_list(cfg["field"]["min_poly"], "field min_poly"), galois)
    w = weights.make_weight(_list(cfg["weight"]["k"], "weight k"))
    units = tuple(_element(fld, u, "field units entry")
                  for u in _list(cfg["field"].get("units", []), "field units"))
    level = cfg.get("level", {})
    delta = exact._as_int(level.get("Delta", 1), "level Delta")
    # h_F is checked but not kept: no criterion reads it
    if "h_F" in level and exact._as_int(level["h_F"], "level h_F") < 1:
        raise ValueError("level h_F must be a positive integer")
    quads = []
    for kd in cfg.get("criteria", {}).get("quadratic_extensions", []):
        dlt = _element(fld, kd["delta"], "quadratic_extensions delta")
        kunits = []
        for pair in _list(kd.get("units", []), "quadratic_extensions units"):
            a, b = _list(pair, "quadratic_extensions units entry")
            kunits.append((_element(fld, a, "quadratic_extensions unit"),
                           _element(fld, b, "quadratic_extensions unit")))
        quads.append(
            criteria.QuadExtDescription(delta=dlt, units=tuple(kunits),
                                        label=kd.get("label", "K"))
        )
    fibers = tuple(
        tuple(tuple(exact._as_int(i, "fiber_partitions entry")
                    for i in _list(block, "fiber_partitions block"))
              for block in _list(part, "fiber_partitions partition"))
        for part in _list(cfg.get("criteria", {}).get("fiber_partitions", []),
                          "criteria fiber_partitions")
    )
    if precision_cap is None:
        precision_cap = exact._as_int(cfg.get("output", {}).get(
            "precision_cap", nfield.DEFAULT_PRECISION_CAP), "output precision_cap")
    return criteria.CertificationInputs(
        field=fld, weight=w, delta=delta, units=units,
        quadratic_extensions=tuple(quads), fiber_partitions=fibers,
        precision_cap=precision_cap,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_weights(args) -> int:
    w = weights.make_weight([int(x) for x in args.k.split(",")])
    hm = weights.hodge_multiset(w)
    mw = weights.mw_check(w)
    b = weights.prime_bounds(w)
    payload = {
        "k": list(w.k), "k0": w.k0, "n": list(w.n), "m": list(w.m),
        "hodge_multiset": list(hm.entries), "motivic_weight": hm.motivic_weight,
        "mw": bool(mw),
        "mw_witness": weights.subset_label(mw.witness) if mw.witness is not None else None,
        "bounds": b.to_json_dict(),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"k = {list(w.k)}  k0 = {w.k0}  n = {list(w.n)}  m = {list(w.m)}")
        print(f"hodge multiset = {{{', '.join(map(str, hm.entries))}}}"
              f"  motivic weight = {hm.motivic_weight}")
        print(f"MW = {bool(mw)}"
              + (f"  (witness J = {weights.subset_label(mw.witness)})"
                 if mw.witness is not None else ""))
        print(f"sum(k-1) = {b.sum_k_minus_1}")
        print(f"min prime (II): {b.min_prime_ii}")
        print(f"min prime (exceptional): {b.min_prime_exceptional}")
        print(f"min prime (combined): {b.min_prime_combined}")
        if b.min_prime_quadratic_alt is not None:
            print(f"min prime (alternative, d=2): {b.min_prime_quadratic_alt}")
        print(f"special primes 2k-1: {sorted(b.special_double)}")
        print(f"special primes k+k'-1: {sorted(b.special_cross)}")
        print(f"small excluded (p | 6 or p <= k0): {sorted(b.small_excluded)}")
    return 0


def _cmd_bgg_table(args) -> int:
    w = weights.make_weight([int(x) for x in args.k.split(",")])
    table = bgg.bgg_table(w)
    if args.format == "json":
        print(table.to_json())
    else:
        print(table.to_text())
    return 0


def _cmd_exclude_primes(args) -> int:
    cfg = load_config(args.config)
    inputs = build_inputs(cfg, args.precision_cap)
    report = criteria.certify(inputs)
    fmt = args.format or cfg.get("output", {}).get("format", "text")
    if fmt == "json":
        print(report.to_json())
    else:
        print(f"field: {list(report.field_poly)}   weight: {list(report.weight.k)}")
        print(f"Delta = {report.delta} with prime divisors {list(report.delta_primes)}")
        print(f"MW: {'ok' if report.mw_ok else 'FAILS'}")
        print("irr criterion:")
        for mask, st in report.irr.per_subset:
            extra = f" value={st.value} primes={list(st.primes)}" \
                if st.kind == "excludes" else f" ({st.note})"
            print(f"  J={weights.subset_label(mask)}: {st.kind}{extra}")
        for rep in report.dihedral:
            print(f"{rep.criterion_id}: excluded {list(rep.aggregate)}")
            for _, st in rep.per_subset[:1]:
                if st.note:
                    print(f"  note: {st.note}")
        for label, ok in report.non_induced:
            print(f"non-induced [{label}]: {ok}")
        print(f"excluded set: {list(report.excluded_set)}")
        print(f"bound: {report.bound}")
        print(report.statement)
        for note in report.notes:
            print(f"note: {note}")
        for item in report.assumption_only:
            print(f"assumption-only: {item}")
    return 0 if report.worst_status == "certified" else 2


def _rows(x, n: int, where: str) -> list:
    """x, if it is a list of rows that are lists of n entries."""
    if not (isinstance(x, list) and all(isinstance(r, list) and len(r) == n for r in x)):
        raise UsageError(f"{where} is not a list of rows of length {n}")
    return x


def _cmd_congruence_module(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    _check_keys(cfg, {"lattice", "split", "p", "ops"}, "congruence-module config",
                required={"lattice", "split", "p"})
    rows = [_list(row, "congruence-module lattice row")
            for row in _list(cfg["lattice"], "congruence-module lattice")]
    if not rows:
        raise UsageError("congruence-module 'lattice' has no rows")
    lat = lattice.Lattice(tuple(tuple(exact._as_int(x, "congruence-module lattice entry")
                                      for x in row) for row in rows), len(rows[0]))
    n, sp = lat.ambient_dim, cfg["split"]
    if isinstance(sp, int) and not isinstance(sp, bool):
        if not 0 < sp < n:
            raise UsageError(f"congruence-module split {sp} is not in 1..{n - 1}")
        split = lattice.coordinate_split(n, sp)
    elif isinstance(sp, dict):
        _check_keys(sp, {"v1", "v2"}, "congruence-module split", required={"v1", "v2"})
        split = lattice.Split(*(
            tuple(tuple(_fraction(x) for x in row)
                  for row in _rows(sp[key], n, f"congruence-module split {key}"))
            for key in ("v1", "v2")))
    else:
        raise UsageError("congruence-module split is neither an integer nor a JSON object")
    several = isinstance(cfg["p"], list)
    ps = [exact._as_int(p, "congruence-module 'p' entry")
          for p in (cfg["p"] if several else [cfg["p"]])]
    if not ps:
        raise UsageError("congruence-module 'p' lists no prime")
    for p in ps:
        if not primes.is_prime(p):
            raise UsageError(f"congruence-module 'p' entry {p} is not prime")
    if "ops" in cfg and not isinstance(cfg["ops"], list):
        raise UsageError("congruence-module ops is not a list of matrices")
    ops = ([tuple(tuple(exact._as_int(x, "congruence-module ops entry") for x in row)
                  for row in _rows(op, n, "congruence-module ops entry"))
            for op in cfg["ops"]] if "ops" in cfg else None)
    if ops is None:
        found = [(cm, None) for cm in lattice.congruence_modules(lat, split, ps)]
    else:
        found = [(res.module, res) for res in lattice._find_congruences(ops, lat, split, ps)]
    payloads = []
    for cm, res in found:
        payload = {
            "p": cm.p,
            "invariant_factors": list(cm.invariant_factors),
            "three_way": [list(t) for t in cm.three_way],
            "order": cm.order,
        }
        if res is not None:
            payload["congruent_pairs"] = [
                {"side1": list(e1.values), "side2": list(e2.values)}
                for e1, e2 in res.pairs
            ]
            payload["extension_needed"] = [res.extension_needed1, res.extension_needed2]
        payloads.append(payload)
    if args.format == "json":
        print(json.dumps(payloads if several else payloads[0], sort_keys=True, indent=2))
        return 0
    for payload in payloads:
        p = payload["p"]
        print(f"congruence module at p={p}: invariant factors {payload['invariant_factors']}"
              f" (order {payload['order']})")
        print(f"three-way quotients: {payload['three_way']}")
        if "congruent_pairs" in payload:
            for pair in payload["congruent_pairs"]:
                print(f"congruent eigensystems: {pair['side1']} = {pair['side2']} mod {p}")
            if not payload["congruent_pairs"]:
                print("no congruent integer eigensystem pairs")
    return 0


def _cmd_classify_image(args) -> int:
    F = gl2img.Fq(args.p, args.r,
                  [int(c) for c in args.modulus.split(",")] if args.modulus else None)
    gens = []
    for part in args.gens.split(";"):
        vals = [int(x) for x in part.split(",")]
        if len(vals) != 4:
            raise UsageError("each generator needs 4 entries a,b,c,d")
        if F.r == 1:
            vals = [F.from_int(v) for v in vals]
        elif not all(0 <= v < F.q for v in vals):
            raise ValueError(f"entries over F_{F.q} are encoded elements 0..{F.q - 1}")
        gens.append(tuple(vals))
    group = gl2img.FqMatrixGroup(F, tuple(gens))
    cap = gl2img.CLOSURE_CAP if args.cap is None else args.cap
    c = gl2img.classify_projective_image(group, cap=cap)
    q_li = gl2img.li_check(group, cap=cap) if args.li else None
    payload = {
        "q": F.q,
        "classification": str(c),
        "projective_order": c.projective_order,
        "trace_field_size": c.trace_field_size,
    }
    if args.li:
        payload["li_subfield"] = q_li
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"group over F_{F.q}: {c}"
              + (f", projective order {c.projective_order}"
                 if c.projective_order else ""))
        if args.li:
            print(f"large-image subfield: {q_li}")
    return 0


def _cmd_adjoint_check(args) -> int:
    if args.samples < 1:
        raise UsageError(f"adjoint-check --samples {args.samples} draws no parameters")
    rng = random.Random(args.seed)
    rows = []
    worst = 0.0
    for _ in range(args.samples):
        q = rng.choice([2, 3, 5, 7])
        k0 = rng.choice([2, 3, 4, 5, 6])
        e = modform.ramanujan_sample(q, k0, rng.uniform(0, 2 * cmath.pi.real),
                                     rng.uniform(0, 2 * cmath.pi.real))
        pts = [rng.uniform(1.5, 3.0) + 1j * rng.uniform(-1.0, 1.0) for _ in range(5)]
        err = modform.verify_zeta_ratio(e, pts)
        worst = max(worst, err)
        rows.append((q, k0, err))
    broken = modform.verify_zeta_ratio(
        modform.ramanujan_sample(3, 3, 0.7, 1.1), [2.0, 2.5],
        break_conjugation=True,
    )
    if args.format == "json":
        print(json.dumps({
            "samples": [{"q": q, "k0": k0, "error": err} for q, k0, err in rows],
            "max_error": worst,
            "broken_conjugation_error": broken,
        }, sort_keys=True, indent=2))
    else:
        print(f"{'q':>3} {'k0':>3} {'relative error':>15}")
        for q, k0, err in rows:
            print(f"{q:>3} {k0:>3} {err:>15.3e}")
        print(f"max error over {args.samples} parameter draws: {worst:.3e}")
        print(f"deliberately broken conjugation: {broken:.3e}")
    return 0 if worst < 1e-9 and broken > 1e-3 else 2


def _cmd_recover_weights(args) -> int:
    multiset = [int(x) for x in args.multiset.split(",")]
    a, parts = gl2img.recover_from_subset_sums(multiset, args.d)
    if args.format == "json":
        print(json.dumps({"a": a, "parts": list(parts)}, sort_keys=True))
    else:
        print(f"a = {a}, parts = {{{', '.join(map(str, parts))}}}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmfcert",
        description="certifier toolkit for congruence-prime hypotheses",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["text", "json"], default=None)
    parser.add_argument("--precision-cap", type=int, default=None,
                        dest="precision_cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="weight calculus and prime bounds")
    p.add_argument("--k", required=True, help="comma-separated weight vector")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("bgg-table", help="spectral table for a weight")
    p.add_argument("--k", required=True)
    p.set_defaults(func=_cmd_bgg_table)

    p = sub.add_parser("exclude-primes", help="run the certification report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_exclude_primes)

    p = sub.add_parser("congruence-module", help="lattice congruence module")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_congruence_module)

    p = sub.add_parser("classify-image", help="classify a finite GL2 subgroup")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--modulus", default=None,
                   help="comma-separated modulus coefficients, low degree first")
    p.add_argument("--gens", required=True,
                   help="generators 'a,b,c,d;e,f,g,h;...'")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--li", action="store_true", help="also run the large-image check")
    p.set_defaults(func=_cmd_classify_image)

    p = sub.add_parser("adjoint-check", help="zeta-ratio identity verification suite")
    p.add_argument("--samples", type=int, default=40)
    p.set_defaults(func=_cmd_adjoint_check)

    p = sub.add_parser("recover-weights", help="weight recovery from subset sums")
    p.add_argument("--multiset", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_recover_weights)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format is None and args.command != "exclude-primes":
            args.format = "text"
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # every bad-input exception of hmfcert is one
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
