"""One in-process workload in a fresh interpreter: set up, run rounds, report.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON object on
stdout.  The set-up (imports, fields, units, lattices, splits) ends at
``ready_at``, a CLOCK_MONOTONIC reading that the parent compares with the
moment it started this process.  Then whole rounds over the corpus run in
a closed loop until ``--seconds`` have passed.  With ``--trace 1`` rounds
alternate untraced and traced, so that one run gives both the per-layer
spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import corpus
from tracing import Tracer, layer_totals


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _certify_ops(seed: int):
    from fractions import Fraction

    from hmfcert import criteria, nfield, weights

    def elem(fld, coeffs):
        return fld.element([Fraction(c) for c in coeffs])

    # one field per (polynomial, Galois data), as a user certifying several
    # weights on one field would hold it: its refined roots carry over
    fields = {}
    ops = []
    for case in corpus.certify_cases(seed):
        key = repr((case["min_poly"], case["galois"]))
        if key not in fields:
            fields[key] = nfield.make_field(case["min_poly"], case["galois"])
        fld = fields[key]
        quads = tuple(
            criteria.QuadExtDescription(
                delta=elem(fld, q["delta"]),
                units=tuple((elem(fld, a), elem(fld, b)) for a, b in q["units"]),
                label=q["label"])
            for q in case["quads"])
        inputs = criteria.CertificationInputs(
            field=fld, weight=weights.make_weight(case["k"]), delta=case["delta"],
            units=tuple(elem(fld, u) for u in case["units"]),
            quadratic_extensions=quads, precision_cap=case["cap"])

        def op(inputs=inputs):
            return criteria.certify(inputs)

        ops.append((case["label"], op, _report_json))
    return ops


def _status_json(mask, st):
    return [mask, st.kind, st.value, list(st.primes)]


def _report_json(rep):
    return {
        "irr": [_status_json(m, st) for m, st in rep.irr.per_subset],
        "dihedral": [[r.criterion_id, [_status_json(m, st) for m, st in r.per_subset]]
                     for r in rep.dihedral],
        "excluded_set": list(rep.excluded_set),
        "status": rep.worst_status,
    }


def _congruence_ops(seed: int):
    from hmfcert import lattice

    batch = corpus.congruence_batch(seed)
    ops = []
    for li, entry in enumerate(batch["lattices"]):
        n = len(entry["rows"])
        lat = lattice.Lattice(tuple(tuple(r) for r in entry["rows"]), n)
        split = lattice.coordinate_split(n, entry["d1"])
        for p in batch["primes"]:
            def op(lat=lat, split=split, p=p):
                return lattice.congruence_module(lat, split, p)

            ops.append((f"module/{li}/{p}", op, _module_json))
    for gi, case in enumerate(batch["glue"]):
        n = len(case["lattice"])
        lat = lattice.Lattice(tuple(tuple(r) for r in case["lattice"]), n)
        split = lattice.coordinate_split(n, case["d1"])
        op_mats = [tuple(tuple(r) for r in m) for m in case["ops"]]

        def op(lat=lat, split=split, ops_=op_mats, p=case["p"]):
            return lattice.find_congruences(ops_, lat, split, p)

        ops.append((f"glue/{gi}", op, _search_json))
    return ops


def _module_json(cm):
    return {"factors": list(cm.invariant_factors),
            "three_way": [list(t) for t in cm.three_way]}


def _search_json(res):
    return {"pairs": [[list(a.values), list(b.values)] for a, b in res.pairs],
            "factors": list(res.module.invariant_factors)}


BUILDERS = {"certify_interval": _certify_ops, "congruence_batch": _congruence_ops}


def _run_round(ops, tracer):
    times, outputs = [], []
    start = time.perf_counter()
    for i, (_label, op, to_json) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a failed operation is data, not a crash
            times.append(time.perf_counter() - t0)
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - t0)
        outputs.append(to_json(result))
    return time.perf_counter() - start, times, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    import hmfcert.cli  # noqa: F401  (binds every hmfcert module)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.add_span("import.hmfcert", t0, t1)
        tracer.install()
    ops = BUILDERS[args.workload](args.seed)
    ready_at = _now()
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []

    rounds = []
    traced_spans = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        wall, times, outputs = _run_round(ops, tracer if traced else None)
        if traced:
            tracer.uninstall()
            traced_spans.append(tracer.spans)
        rounds.append({"wall": wall, "times": times, "outputs": outputs, "traced": traced})
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready_at": ready_at, "labels": [label for label, _, _ in ops],
              "rounds": rounds, "peak_rss_kb": rss_kb}
    if tracer is not None:
        result["setup_layers"] = layer_totals(setup_spans)
        result["round_layers"] = [layer_totals(s) for s in traced_spans]
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                # one line per span, prefixed with its round (-1 for set-up);
                # parent indices count within that round
                for r, spans in enumerate([setup_spans] + traced_spans, start=-1):
                    for span in spans:
                        fh.write(json.dumps([r, *span]) + "\n")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
