"""Solve/verify benchmark for the ``unanimity`` CLI.

Closed loop, one client, one process, one thread: each decision runs
``unanimity solve`` on an instance file and then ``unanimity verify`` on the
report it wrote, both in-process through ``unanimity.cli.main``, back to
back.  A pass runs every decision of the workload once.

    python3 perfbench/run.py --workload lp-grid --seed 0 --seconds 60 --trace 0

``--trace 0`` warms up on the first WARMUP_DECISIONS decisions, runs one
whole pass, then goes on through the decisions in pass order until
``--seconds`` have passed, and prints the end-to-end metrics.  ``--trace 1``
runs one pass with every layer wrapped in spans (and every
TRACE_COMPARE_EVERY-th decision also untraced) and prints the per-layer
metrics and a self-time table.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  Spans and a full result record go to ``.bench_build/perfbench/``.

``--write-golden`` runs one pass at the default seed and stores its outputs
in ``golden-seed0.jsonl``; every later run at that seed is checked against
them.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(HERE, f"golden-seed{DEFAULT_SEED}.jsonl")
SETUP_REPEATS = 9
EXIT_NO_PROGRAM = 2
EXIT_USAGE = 64
TRACE_COMPARE_EVERY = 4
WARMUP_DECISIONS = 4
SETUP = "setup"  # decision id of set-up spans

CATEGORIES = ("PureVertex", "ThresholdSearch", "Verification", "AdviceCheck")


def _import_program():
    """Import ``unanimity`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "unanimity", "cli.py")):
        sys.stderr.write(f"perfbench: no program to measure: {SRC}/unanimity is missing\n")
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    import unanimity

    if os.path.dirname(os.path.dirname(os.path.abspath(unanimity.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported unanimity from {unanimity.__file__}, not {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)


def environment() -> dict:
    """Read-only facts about the machine, recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


# --- one decision -------------------------------------------------------------


def golden_record(d, doc: dict) -> dict:
    """What a decision must reproduce: outcome, lottery or witness, queries."""
    outcome = doc["outcome"]
    per_cat = doc["queries"]["per_category"]
    rec = {
        "instance": d.instance,
        "solver": d.solver,
        "solver_seed": d.solver_seed,
        "hint": d.hint,
        "outcome": outcome["kind"],
        "queries": {
            "total": doc["queries"]["total"],
            "per_category": {c: per_cat.get(c, 0) for c in CATEGORIES},
        },
    }
    if "lottery" in outcome:
        rec["lottery"] = outcome["lottery"]
    if "witness" in outcome:
        rec["witness"] = outcome["witness"]
    return rec


def _check_outcome(doc: dict, inst, truth) -> list[str]:
    """Compare a report with the generator's ground truth.  ``verify`` alone
    is not enough: it passes a Null report that carries no witness."""
    from unanimity.core import parse_rational

    problems = []
    outcome = doc["outcome"]
    kind = outcome["kind"]
    if kind != ("Accepted" if truth.feasible else "Null"):
        problems.append(f"outcome {kind} disagrees with ground truth")
    elif kind == "Accepted" and truth.unique:
        got = tuple(parse_rational(t) for t in outcome["lottery"])
        if got != truth.lottery.probs:
            problems.append("lottery differs from the unique feasible point")
    elif kind == "Null":
        witness = outcome.get("witness")
        if not witness:
            problems.append("Null report carries no witness")
        else:
            agents = witness.get("helly", [witness.get("reject_all")])
            if not all(isinstance(i, int) and 1 <= i <= inst.n for i in agents):
                problems.append(f"witness indices out of range 1..{inst.n}: {agents}")
            elif len(agents) > inst.m:
                problems.append(f"witness has {len(agents)} > m agents")
    return problems


class Runner:
    def __init__(self, workload, workdir: str, tracer=None) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.report_path = os.path.join(workdir, "report.json")
        self.truths: dict = {}
        self.setup_times: list[float] = []

    def set_up(self) -> None:
        """Generate and write every file once more, timed.  Files and truths
        are the same every time: they depend on the seed alone."""
        from tracing import installed
        from workloads import set_up

        gc.collect()
        t0 = perf_counter()
        if self.tracer is None:
            self.truths = set_up(self.workload, self.workdir)
        else:
            self.tracer.decision = SETUP
            with installed(self.tracer):
                self.truths = set_up(self.workload, self.workdir)
            self.tracer.decision = None
        self.setup_times.append(perf_counter() - t0)

    def _timed(self, name: str, argv: list[str], traced: bool):
        from unanimity.cli import main

        buf = io.StringIO()
        with redirect_stdout(buf), (self.tracer.span(name) if traced else nullcontext()):
            t0 = perf_counter()
            try:
                code = main(argv)
            except Exception:
                # A crash fails this decision; the run goes on and reports it.
                code = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
            t1 = perf_counter()
        return code, t1 - t0, buf.getvalue()

    def decide(self, d, traced: bool = False) -> dict:
        from workloads import hint_path, instance_path

        inst, truth = self.truths[d.instance]
        inst_file = instance_path(self.workdir, d.instance)
        argv = ["solve", inst_file, "--solver", d.solver, "--seed", str(d.solver_seed),
                "--out", self.report_path]
        if d.hint:
            argv += ["--advice-lottery", hint_path(self.workdir, d.instance)]
        problems = []
        code, solve_s, _ = self._timed("cli.solve", argv, traced)
        vcode, verify_s, vout = self._timed(
            "cli.verify", ["verify", self.report_path, inst_file], traced)
        expected = 0 if truth.feasible else 3
        if code != expected:
            problems.append(f"solve exited {code}, expected {expected}")
        if vcode != 0 or vout.strip() != "pass":
            problems.append(f"verify exited {vcode}: {vout.strip()!r}")
        rec = None
        stats = (0, 0)
        if code in (0, 3):
            try:
                with open(self.report_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                problems += _check_outcome(doc, inst, truth)
                rec = json.dumps(golden_record(d, doc), sort_keys=True)
                stats = (doc["iterations"], len(doc["learned_agents"]))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report: {exc!r}")
        return {"id": d.id, "solve_s": solve_s, "verify_s": verify_s, "record": rec,
                "problems": problems, "rounds": stats[0], "learned": stats[1], "n": inst.n}

    def run_pass(self, number: int) -> list[dict]:
        """One decision after another, each once; when tracing, every
        TRACE_COMPARE_EVERY-th decision also runs untraced just before, to
        measure the tracing overhead and to compare outputs."""
        from tracing import installed

        decisions = self.workload.decisions
        # The first pass repeats set-up at evenly spaced points, so that the
        # median set-up time samples the machine over the whole run.
        resetup = {len(decisions) * j // SETUP_REPEATS for j in range(1, SETUP_REPEATS)}
        results = []
        for k, d in enumerate(decisions):
            if number == 0 and k in resetup:
                self.set_up()
            if self.tracer is None or k % TRACE_COMPARE_EVERY == 0:
                results.append(dict(self.decide(d), traced=False, pass_=number))
            if self.tracer is not None:
                self.tracer.decision = d.id
                with installed(self.tracer):
                    results.append(dict(self.decide(d, traced=True), traced=True, pass_=number))
                self.tracer.decision = None
        return results

    def run_until(self, deadline: float, first_pass: int) -> list[dict]:
        """Decisions in pass order, from pass ``first_pass`` on, until
        ``deadline``.  Slots are interleaved, so a partial pass keeps the mix."""
        results = []
        number = first_pass
        while True:
            for d in self.workload.decisions:
                if perf_counter() >= deadline:
                    return results
                results.append(dict(self.decide(d), traced=False, pass_=number))
            number += 1


# --- metrics ------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results, setup_times) -> dict:
    solve_ms = [r["solve_s"] * 1000.0 for r in results]
    verify_ms = [r["verify_s"] * 1000.0 for r in results]
    busy = sum(r["solve_s"] + r["verify_s"] for r in results)
    queries = sum(json.loads(r["record"])["queries"]["total"]
                  for r in results if r["pass_"] == 0 and r["record"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "decision_ms_p50": _metric(statistics.median(solve_ms), "ms"),
        "decision_ms_p90": _metric(statistics.quantiles(solve_ms, n=10)[8], "ms"),
        "verify_ms_p50": _metric(statistics.median(verify_ms), "ms"),
        "decisions_per_s": _metric(len(results) / busy, "1/s"),
        "queries_total": _metric(queries, "count"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(results, setup_spans, decision_spans) -> tuple[dict, dict]:
    """Per-layer metrics of the one traced pass; set-up ones per set-up."""
    from tracing import summarize

    traced = [r for r in results if r["traced"]]
    plain = {r["id"]: r for r in results if not r["traced"]}
    summ = summarize(decision_spans)
    setup = summarize(setup_spans)

    def get(name, key="s", table=summ):
        return table.get(name, {}).get(key, 0)

    counts = {c: 0 for c in CATEGORIES}
    for r in traced:
        if r["record"]:
            for c, v in json.loads(r["record"])["queries"]["per_category"].items():
                counts[c] += v
    rounds = sum(r["rounds"] for r in traced)
    learned = sum(r["learned"] for r in traced)
    n_total = sum(r["n"] for r in traced)
    select_rows = [s.info["rows"] for s in decision_spans if s.name == "feasibility.select"]
    witness = [s for s in decision_spans if s.name == "feasibility.helly_witness"]
    witness_ids = {s.id for s in witness}
    witness_selects = sum(1 for s in decision_spans
                          if s.name == "feasibility.select" and s.parent in witness_ids)
    turning = get("geometry.exact_threshold", "calls") + get("geometry.exact_threshold_pred", "calls")
    solve_s = get("cli.solve")
    paired = [r for r in traced if r["id"] in plain]
    overhead = (sum(r["solve_s"] + r["verify_s"] for r in paired)
                / sum(plain[r["id"]]["solve_s"] + plain[r["id"]]["verify_s"] for r in paired))

    m = {
        "oracle.queries": _metric(sum(counts.values()), "count"),
        "oracle.queries.pure_vertex": _metric(counts["PureVertex"], "count"),
        "oracle.queries.threshold_search": _metric(counts["ThresholdSearch"], "count"),
        "oracle.queries.verification": _metric(counts["Verification"], "count"),
        "oracle.queries.advice_check": _metric(counts["AdviceCheck"], "count"),
        "oracle.query.calls": _metric(get("oracle.query", "calls"), "count"),
        "oracle.query.s": _metric(get("oracle.query"), "s"),
        "geometry.rational_reconstruct.calls": _metric(get("geometry.rational_reconstruct", "calls"), "count"),
        "geometry.rational_reconstruct.s": _metric(get("geometry.rational_reconstruct"), "s"),
        "geometry.learn_hyperplane.calls": _metric(get("geometry.learn_hyperplane", "calls"), "count"),
        "geometry.learn_hyperplane.self_s": _metric(get("geometry.learn_hyperplane", "self_s"), "s"),
        "geometry.exact_threshold.calls": _metric(get("geometry.exact_threshold", "calls"), "count"),
        "geometry.exact_threshold_pred.calls": _metric(get("geometry.exact_threshold_pred", "calls"), "count"),
        "geometry.exact_threshold_pred.s": _metric(get("geometry.exact_threshold_pred"), "s"),
        "geometry.threshold_queries_per_turning_point": _metric(
            counts["ThresholdSearch"] / turning if turning else 0.0, "count/call"),
        "feasibility.select.calls": _metric(get("feasibility.select", "calls"), "count"),
        "feasibility.select.s": _metric(get("feasibility.select"), "s"),
        "feasibility.select.rows_mean": _metric(
            statistics.fmean(select_rows) if select_rows else 0.0, "rows"),
        "feasibility.select.rows_max": _metric(max(select_rows, default=0), "rows"),
        "feasibility.select.solve_share": _metric(
            get("feasibility.select") / solve_s if solve_s else 0.0, "ratio"),
        "feasibility.helly_witness.calls": _metric(get("feasibility.helly_witness", "calls"), "count"),
        "feasibility.helly_witness.s": _metric(get("feasibility.helly_witness"), "s"),
        "feasibility.helly_witness.select_calls": _metric(witness_selects, "count"),
        "feasibility.helly_witness.kept_ratio": _metric(
            sum(s.info["kept"] for s in witness) / sum(s.info["rows"] for s in witness)
            if witness else 0.0, "ratio"),
        "feasibility.feasible_full.calls": _metric(get("feasibility.feasible_full", "calls"), "count"),
        "feasibility.feasible_full.s": _metric(get("feasibility.feasible_full"), "s"),
        "solvers.weighted_sample.calls": _metric(get("solvers.weighted_sample", "calls"), "count"),
        "solvers.weighted_sample.s": _metric(get("solvers.weighted_sample"), "s"),
        "solvers.self_s": _metric(get("solvers.solve", "self_s"), "s"),
        "solvers.rounds": _metric(rounds, "count"),
        "solvers.learned_agents": _metric(learned, "count"),
        "solvers.learned_ratio": _metric(learned / n_total, "ratio"),
        "instances.read_instance.calls": _metric(get("instances.read_instance", "calls"), "count"),
        "instances.read_instance.s": _metric(get("instances.read_instance"), "s"),
        "instances.read_instance.bytes": _metric(
            sum(s.info["bytes"] for s in decision_spans if s.name == "instances.read_instance"),
            "B"),
        "instances.generate.s": _metric(
            get("instances.generate", table=setup) / SETUP_REPEATS, "s"),
        "instances.write_instance.s": _metric(
            get("instances.write_instance", table=setup) / SETUP_REPEATS, "s"),
        "cli.solve.self_s": _metric(get("cli.solve", "self_s"), "s"),
        "cli.verify.self_s": _metric(get("cli.verify", "self_s"), "s"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    }
    return m, summ


def self_time_table(summ: dict) -> str:
    """Self time per span name and per layer, largest first."""
    total = sum(row["self_s"] for row in summ.values())
    lines = [f"{'span':<34}{'calls':>10}{'self s':>10}{'share':>8}"]
    for name, row in sorted(summ.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<34}{row['calls']:>10}{row['self_s']:>10.4f}"
                     f"{row['self_s'] / total:>8.1%}")
    layers: dict[str, float] = {}
    for name, row in summ.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    lines.append(f"{'layer':<34}{'':>10}{'self s':>10}{'share':>8}")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<34}{'':>10}{s:>10.4f}{s / total:>8.1%}")
    return "\n".join(lines)


# --- command line -------------------------------------------------------------


def _golden_lines() -> list[dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _load_golden(workload: str) -> dict:
    golden = {g["id"]: json.dumps(g["record"], sort_keys=True)
              for g in _golden_lines() if g["workload"] == workload}
    if not golden:
        raise ValueError(f"{GOLDEN_PATH} holds no golden outputs for {workload}")
    return golden


def _write_golden(workload: str, results) -> None:
    """Replace ``workload``'s lines of the golden file, one record a line."""
    lines = [g for g in _golden_lines() if g["workload"] != workload] \
        if os.path.exists(GOLDEN_PATH) else []
    lines += [{"workload": workload, "id": r["id"], "record": json.loads(r["record"])}
              for r in results]
    lines.sort(key=lambda g: (g["workload"], g["id"]))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        for g in lines:
            fh.write(json.dumps(g) + "\n")


def _check_records(results, golden) -> None:
    """Every run of a decision, traced or not, must reproduce its first run
    byte for byte, and at the default seed the committed golden outputs."""
    first = {}
    for r in results:
        expected = golden.get(r["id"]) if golden is not None else first.setdefault(r["id"], r["record"])
        if r["record"] != expected:
            where = os.path.basename(GOLDEN_PATH) if golden is not None else "its first run"
            r["problems"].append(f"output differs from {where}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="run one pass at the default seed and store its outputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    from tracing import Tracer
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}\n")
        return EXIT_USAGE
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        sys.stderr.write(f"perfbench: golden outputs come from an untraced run at seed {DEFAULT_SEED}\n")
        return EXIT_USAGE
    env = environment()
    print("env " + json.dumps(env), flush=True)
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = _load_golden(args.workload)

    workload = make_workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workload, workdir, tracer)
        runner.set_up()
        timed = not (tracer or args.write_golden)
        # Warm-up runs are checked like any other but not timed.
        warmup = [dict(runner.decide(d), traced=False, pass_=-1)
                  for d in workload.decisions[:WARMUP_DECISIONS]] if timed else []
        start = perf_counter()
        results = runner.run_pass(0)
        if timed:
            results += runner.run_until(start + args.seconds, 1)
        passes = max(r["pass_"] for r in results) + 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = warmup + results
    _check_records(checked, golden)
    failures = [r for r in checked if r["problems"]]
    for r in failures[:20]:
        sys.stderr.write(f"perfbench: {args.workload} {r['id']}: {'; '.join(r['problems'])}\n")
    if args.write_golden:
        if failures:
            sys.stderr.write("perfbench: not writing golden outputs from a failing pass\n")
            return 1
        _write_golden(args.workload, results)
        print(f"wrote {len(results)} golden records for {args.workload}")
        return 0

    correct = not failures
    tag = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": passes,
              "decisions_per_pass": len(workload.decisions),
              "warmup": len(warmup), "timed": len(results),
              "attempted": len(checked), "failed": len(failures),
              "failed_ratio": len(failures) / len(checked)}
    if tracer:
        metrics, summ = per_layer(
            results, [sp for sp in tracer.spans if sp.decision == SETUP],
            [sp for sp in tracer.spans if sp.decision != SETUP])
        if metrics["oracle.query.calls"]["value"] != metrics["oracle.queries"]["value"] \
                or tracer.orphan_query_calls:
            sys.stderr.write("perfbench: traced query count differs from the reports\n")
            correct = False
        print(f"self time of the traced pass, {args.workload} seed {args.seed}:")
        print(self_time_table(summ))
        tracer.write(os.path.join(OUT_DIR, f"{tag}-spans.jsonl"))
    else:
        metrics = end_to_end(results, runner.setup_times)
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{args.workload} seed {args.seed}: {len(results)} timed decisions in {passes} "
          f"pass(es) of {len(workload.decisions)}, {len(warmup)} warm-up, "
          f"failed_ratio {record['failed_ratio']:.4f}")
    print(json.dumps({"correct": correct, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
