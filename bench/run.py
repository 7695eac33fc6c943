"""hmfcert benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Workloads: cli_session (one ``python -m hmfcert.cli`` process per command),
certify_interval (in-process ``criteria.certify``) and congruence_batch
(in-process ``lattice.congruence_module`` and ``find_congruences``).  One
client drives each in a closed loop: whole rounds over the seeded corpus
until S seconds have passed.  Every output is checked by the oracles in
oracles.py, which use sympy and mpmath and no hmfcert code.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A copy goes to
bench/out/, together with the spans of a traced run.  Run it from anywhere
in a checkout; it needs ``src/hmfcert`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli_session", "certify_interval", "congruence_batch")
COMMAND_TIMEOUT = 60      # one CLI process
INPROC_SLACK = 120        # set-up, the last round and the report of an in-process run

# per-layer metric -> span name; "*.calls" and "*.self_s" read the span totals
PER_LAYER = (
    "import.hmfcert_s", "import.sympy_s", "nfield.make_field.self_s",
    "cli.run.self_s", "criteria.certify.self_s",
    "nfield.embed.calls", "nfield.embed.self_s",
    "nfield.DyadicInterval.power.calls", "nfield.DyadicInterval.power.self_s",
    "nfield.symmetrized_norm.self_s", "nfield.symmetrized_difference_norm.self_s",
    "nfield.norm.calls", "nfield.norm.self_s",
    "nfield.interval_rounds", "nfield.max_bits", "nfield.rounds_per_certificate",
    "criteria.irr_excluded_primes.self_s", "criteria.dihedral_noncm_excluded.self_s",
    "primes.factor.calls", "primes.factor.self_s",
    "lattice.congruence_module.self_s", "lattice.split_lattice.calls",
    "lattice.split_lattice.self_s", "lattice.hnf.self_s", "lattice.hnf_with_transform.self_s",
    "lattice.snf.self_s", "lattice.bareiss_det.calls", "lattice.bareiss_det.self_s",
    "lattice.find_congruences.self_s",
    "gl2img.FqMatrixGroup.closure.self_s", "gl2img.classify_projective_image.self_s",
    "gl2img.li_check.self_s", "modform.verify_zeta_ratio.self_s",
)

UNITS = {"calls": "count", "self_s": "s", "interval_rounds": "count", "max_bits": "bits",
         "rounds_per_certificate": "ratio", "hmfcert_s": "s", "sympy_s": "s",
         "overhead_s": "s"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setup_s, rounds, rss_kb):
    """End-to-end metrics from the untraced rounds of a run.

    op_max_s is the slowest operation's median over rounds, so that one
    noisy round does not pick the maximum.
    """
    times = [r["times"] for r in rounds]
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(r["wall"] for r in rounds), "s"),
        "op_p50_s": _metric(statistics.median(t for ts in times for t in ts), "s"),
        "op_max_s": _metric(max(statistics.median(op) for op in zip(*times)), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }


def _per_layer(totals: dict, traced_walls, untraced_walls):
    """Per-layer metrics from span totals of one round (set-up spans included)."""
    out = {}
    for name in PER_LAYER:
        if name.startswith("import."):
            value = totals.get(name[:-2], [0, 0.0])[1]
        elif name == "nfield.rounds_per_certificate":
            certified = totals.get("nfield.certified_values", 0)
            value = totals.get("nfield.interval_rounds", 0) / certified if certified else 0.0
        elif name in ("nfield.interval_rounds", "nfield.max_bits"):
            value = totals.get(name, 0)
        else:
            span, kind = name.rsplit(".", 1)
            entry = totals.get(span, [0, 0.0])
            value = entry[0] if kind == "calls" else entry[1]
        out[name] = _metric(value, UNITS[name.rsplit(".", 1)[1]])
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out


def _round_average(round_totals, setup_totals):
    """Mean of per-round span totals, plus the set-up spans once.

    Every round repeats the same operations, so counts divide exactly.
    """
    n = len(round_totals)
    merged = tracing.merge_totals(round_totals)
    out = {}
    for name, val in merged.items():
        if isinstance(val, list):
            out[name] = [val[0] // n, val[1] / n]
        elif name == "nfield.max_bits":
            out[name] = val
        else:
            out[name] = val // n
    return tracing.merge_totals([out, setup_totals])


# ---------------------------------------------------------------------------
# in-process workloads


def _run_inproc(args, spans_path):
    import oracles

    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", spans_path]
    started = _now()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=args.seconds + INPROC_SLACK)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker failed:\n{proc.stderr[-3000:]}")
    data = json.loads(proc.stdout)
    rounds = data["rounds"]

    problems, attempted, failed = [], 0, 0
    first = rounds[0]["outputs"]
    for r, rnd in enumerate(rounds[1:], start=1):
        if rnd["outputs"] != first:
            problems.append(f"round {r} outputs differ from round 0")
    if args.workload == "certify_interval":
        cases = corpus.certify_cases(args.seed)
        for group in corpus.GALOIS.values():
            problems += oracles.check_galois(group["min_poly"], group["perms"], group["maps"])
        for case, out in zip(cases, first):
            if "error" in out:
                problems.append(f"{case['label']}: {out['error']}")
                n = corpus.statuses_per_certificate(case)
                attempted, failed = attempted + n, failed + n
                continue
            p, f, a = oracles.check_report(case, out["irr"], out["dihedral"])
            problems += p
            failed += f
            attempted += a
    else:
        batch = corpus.congruence_batch(args.seed)
        lattice_oracles = {}
        for label, out in zip(data["labels"], first):
            attempted += 1
            if "error" in out:
                failed += 1
                problems.append(f"{label}: {out['error']}")
                continue
            kind, idx, *rest = label.split("/")
            idx = int(idx)
            if kind == "module":
                entry, p = batch["lattices"][idx], int(rest[0])
                if idx not in lattice_oracles:
                    lattice_oracles[idx] = oracles.LatticeOracle(entry["rows"], entry["d1"])
                problems += oracles.check_module(label, out["factors"], lattice_oracles[idx], p)
                if any(t != out["factors"] for t in out["three_way"]):
                    problems.append(f"{label}: three-way quotients {out['three_way']}")
            else:
                case = batch["glue"][idx]
                problems += oracles.check_search(label, out["pairs"], case["glued"])
                problems += oracles.check_module(
                    label, out["factors"], oracles.LatticeOracle(case["lattice"], case["d1"]),
                    case["p"])
    attempted *= len(rounds)
    failed *= len(rounds)

    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        totals = _round_average(data["round_layers"], data["setup_layers"])
        metrics = _per_layer(totals, [r["wall"] for r in rounds if r["traced"]],
                             [r["wall"] for r in untraced])
    else:
        metrics = _end_to_end(data["ready_at"] - started, untraced, data["peak_rss_kb"])
    return problems, attempted, failed, metrics, rounds


# ---------------------------------------------------------------------------
# cli_session

SETUP_PROBE = "import hmfcert.cli\nfrom hmfcert import nfield\nnfield.make_field([-5, 0, 1])\n"


def _run_command(argv, traced, spans_file):
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), spans_file, *argv]
    else:
        cmd = [sys.executable, "-m", "hmfcert.cli", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"hmfcert {' '.join(argv)} did not finish in time") from exc
    return time.perf_counter() - t0, proc


def _check_cli(name, argv, cfg, rc, stdout, glued):
    import oracles

    if rc != 0:
        return [f"{name}: exit code {rc}"], 1
    payload = json.loads(stdout)
    arg = dict(zip(argv, argv[1:]))
    if name == "weights":
        return oracles.check_weights(payload, [int(x) for x in arg["--k"].split(",")]), 0
    if name == "bgg-table":
        return oracles.check_bgg(payload, [int(x) for x in arg["--k"].split(",")]), 0
    if name.startswith("exclude-primes"):
        field = cfg["field"]
        case = {"label": name, "min_poly": field["min_poly"], "galois": field.get("galois"),
                "k": cfg["weight"]["k"], "units": field["units"],
                "quads": cfg.get("criteria", {}).get("quadratic_extensions", [])}

        def rows(per_subset):
            return sorted((oracles.parse_label(lbl), st["kind"], st.get("value"),
                           st.get("primes", [])) for lbl, st in per_subset.items())

        statuses = rows(payload["irr"]["per_subset"])
        dihedral = [(r["criterion"], rows(r["per_subset"])) for r in payload["dihedral"]]
        problems, failed, _ = oracles.check_report(case, statuses, dihedral)
        reported = {p for _, kind, _, primes in statuses + [s for _, per in dihedral for s in per]
                    if kind == "excludes" for p in primes}
        reported |= set(oracles.factor_primes(int(cfg.get("level", {}).get("Delta", 1))))
        if not reported <= set(payload["excluded_set"]):
            problems.append(f"{name}: excluded set misses {sorted(reported - set(payload['excluded_set']))}")
        if payload["status"] != "certified":
            problems.append(f"{name}: status {payload['status']}")
        return problems, failed
    if name.startswith("classify-image"):
        return oracles.check_classify(payload, int(arg["--p"]), "--li" in argv), 0
    if name == "congruence-module":
        lat = oracles.LatticeOracle(cfg["lattice"], cfg["split"])
        problems = oracles.check_module(name, payload["invariant_factors"], lat, cfg["p"])
        problems += oracles.check_search(name, payload["congruent_pairs"], glued)
        return problems, 0
    if name == "adjoint-check":
        return oracles.check_adjoint(payload, int(arg["--samples"])), 0
    if name == "recover-weights":
        return oracles.check_recover(payload, [int(x) for x in arg["--multiset"].split(",")]), 0
    raise BenchError(f"no oracle for {name}")


def _run_cli(args, spans_path):
    session = corpus.cli_session(args.seed)
    with tempfile.TemporaryDirectory(prefix=f"cli-{args.seed}-", dir=OUT) as workdir:
        commands = []
        for idx, (name, argv, cfg) in enumerate(session["commands"]):
            if cfg is not None:
                path = os.path.join(workdir, f"{idx}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                argv = [path if a == "{config}" else a for a in argv]
            commands.append((name, argv, cfg))
        setup_s, rounds, round_totals = _cli_rounds(args, commands, workdir, spans_path)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    problems, failed = [], 0
    first = rounds[0]["outputs"]
    for r, rnd in enumerate(rounds[1:], start=1):
        for (name, _, _), a, b in zip(commands, first, rnd["outputs"]):
            if a != b:
                problems.append(f"{name}: round {r} output differs from round 0")
    for (name, argv, cfg), (rc, stdout) in zip(commands, first):
        p, f = _check_cli(name, argv, cfg, rc, stdout, session["glued"])
        problems += p
        failed += f

    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        totals = _round_average(round_totals, {})
        metrics = _per_layer(totals, [r["wall"] for r in rounds if r["traced"]],
                             [r["wall"] for r in untraced])
    else:
        metrics = _end_to_end(setup_s, untraced, rss_kb)
    return problems, len(commands) * len(rounds), failed * len(rounds), metrics, rounds


def _cli_rounds(args, commands, workdir, spans_path):
    """The set-up probe, then whole rounds of the commands; traced rounds alternate."""
    t0 = _now()
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=_child_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=COMMAND_TIMEOUT)
    setup_s = _now() - t0
    if probe.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{probe.stderr[-3000:]}")

    spans_file = os.path.join(workdir, "spans.json")
    rounds, round_totals = [], []
    with open(spans_path if args.trace else os.devnull, "w", encoding="utf-8") as spans_out:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t_round = time.perf_counter()
            times, outputs, totals = [], [], []
            for idx, (name, argv, _cfg) in enumerate(commands):
                dt, proc = _run_command(argv, traced, spans_file)
                times.append(dt)
                outputs.append((proc.returncode, proc.stdout))
                if proc.returncode != 0 and proc.stderr:
                    print(f"{name}: {proc.stderr[-2000:]}", file=sys.stderr)
                if traced:
                    with open(spans_file, encoding="utf-8") as fh:
                        spans = json.load(fh)
                    totals.append(tracing.layer_totals(spans))
                    for span in spans:
                        spans_out.write(json.dumps([len(rounds), idx, *span]) + "\n")
            rounds.append({"wall": time.perf_counter() - t_round, "times": times,
                           "outputs": outputs, "traced": traced})
            if traced:
                round_totals.append(tracing.merge_totals(totals))
            if time.perf_counter() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
    return setup_s, rounds, round_totals


# ---------------------------------------------------------------------------
# planted faults


def self_test() -> list[str]:
    """Plant one wrong value, one missing prime and one wrong module order.

    Returns what went wrong: a true output that was rejected, or a planted
    fault that was accepted.
    """
    import oracles

    missed = []
    q5 = oracles.CertifyOracle([-5, 0, 1], [[0, 1], [1, 0]], [4, 2], [["3/2", "1/2"]])
    value = q5.irr_value(1)
    primes = oracles.factor_primes(value)
    if oracles.check_status("q5", "excludes", value, primes, value)[0]:
        missed.append("the true q5 value was rejected")
    if not oracles.check_status("q5", "excludes", value + 1, primes, value)[0]:
        missed.append("a wrong value was accepted")
    if not oracles.check_status("q5", "excludes", value, primes[:-1], value)[0]:
        missed.append("a missing prime was accepted")
    lat = oracles.LatticeOracle([[1, 1], [0, 5]], 1)
    if oracles.check_module("example", [5], lat, 5):
        missed.append("the true module order was rejected")
    if not oracles.check_module("example", [25], lat, 5):
        missed.append("a wrong module order was accepted")
    return missed


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hmfcert", "cli.py")):
        print(f"error: no hmfcert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        missed = self_test()
        for m in missed:
            print(f"self-test: {m}", file=sys.stderr)
        print(json.dumps({"self_test": "failed" if missed else "passed"}))
        return 1 if missed else 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        if args.workload == "cli_session":
            problems, attempted, failed, metrics, rounds = _run_cli(args, spans_path)
        else:
            problems, attempted, failed, metrics, rounds = _run_inproc(args, spans_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missed = self_test()
    problems += [f"self-test: {m}" for m in missed]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    # the copy also keeps each round's operation times, for looking into spreads
    timings = [{"wall": r["wall"], "times": r["times"], "traced": r["traced"]} for r in rounds]
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": timings}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
