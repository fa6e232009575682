"""Command line harness: generate, solve, verify, and benchmark.

Subcommands (run as ``python -m unanimity ...``):

* ``gen``    -- build an instance from a generator family and write it to a
  JSON file, plus a ground-truth sidecar (and a hint sidecar when the
  family prescribes one).
* ``solve``  -- run a solver on an instance file and emit a JSON report.
  Exit code 0 means a unanimously acceptable lottery was found, 3 means a
  certified Null.
* ``verify`` -- re-check a report against its instance by direct
  expected-utility evaluation (no oracle, no solver trust).
* ``bench``  -- sweep (instance, solver, seed) combinations and append
  rows to a CSV table.

Usage and I/O errors exit with code >= 64.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from unanimity.core import (
    Instance,
    Lottery,
    expected_utility,
    format_rational,
    parse_rational,
)
from unanimity.feasibility import ConstraintSet, feasible_full, normalized_row, select
from unanimity.instances import FAMILIES, GeneratorSpec, generate, read_instance, write_instance
from unanimity.oracle import Oracle
from unanimity.solvers import Advice, SolveReport, solve_baseline, solve_deterministic, solve_randomized

EXIT_ACCEPTED = 0
EXIT_NULL = 3
EXIT_USAGE = 64
EXIT_IO = 66

SOLVERS = ("baseline", "deterministic", "randomized")

BENCH_COLUMNS = [
    "instance", "n", "m", "inv_epsilon", "solver", "advice", "seed",
    "outcome", "total_queries", "pure_vertex", "threshold_search",
    "verification", "advice_check", "learned_agents", "record_count",
    "iterations", "wall_ms",
]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented contract is >= 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="unanimity", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--inv-eps", "--Q", dest="inv_epsilon", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--x", help="comma-separated lottery coordinates, e.g. 1/4,1/4,1/2")
    g.add_argument("--j", type=int, help="alternative index for point-mass")
    g.add_argument("--delta", help="hint error budget for near-threshold")
    g.add_argument("--t", type=int, help="family index for near-threshold")
    g.add_argument("--out", required=True, help="instance file path")

    s = sub.add_parser("solve", help="run a solver on an instance file")
    s.add_argument("instance")
    s.add_argument("--solver", choices=SOLVERS, default="deterministic")
    s.add_argument("--advice-perm", help="JSON file: list of agent indices")
    s.add_argument("--advice-lottery", help="JSON file: list of rational strings")
    s.add_argument("--seed", type=int, default=0, help="RNG seed (randomized solver)")
    s.add_argument("--trace", metavar="CSV", help="capture the query trace to a CSV file")
    s.add_argument("--out", help="write the JSON report here instead of stdout")

    v = sub.add_parser("verify", help="check a report against its instance")
    v.add_argument("report")
    v.add_argument("instance")

    b = sub.add_parser("bench", help="sweep solvers over instances, append CSV rows")
    b.add_argument("instances", nargs="+")
    b.add_argument("--solver", action="append", choices=SOLVERS,
                   help="repeatable; defaults to all three")
    b.add_argument("--advice-perm", help="JSON file: list of agent indices")
    b.add_argument("--advice-lottery", help="JSON file: list of rational strings")
    b.add_argument("--seeds", type=int, default=1,
                   help="run seeds 0..N-1 for the randomized solver")
    b.add_argument("--format", choices=["csv"], default="csv")
    b.add_argument("--out", required=True, help="CSV path (appended, never rewritten)")
    return p


def _load_advice(perm_path, lottery_path) -> Advice:
    order = None
    x_hat = None
    if perm_path:
        with open(perm_path, "r", encoding="utf-8") as fh:
            order = tuple(int(i) for i in json.load(fh))
    if lottery_path:
        with open(lottery_path, "r", encoding="utf-8") as fh:
            x_hat = Lottery([parse_rational(t) for t in json.load(fh)])
    return Advice(order=order, x_hat=x_hat)


def _run_solver(inst: Instance, solver: str, advice: Advice, seed: int,
                capture_trace: bool = False):
    o = Oracle(inst, capture_trace=capture_trace)
    if solver == "baseline":
        return solve_baseline(o), o
    if solver == "deterministic":
        return solve_deterministic(o, advice), o
    return solve_randomized(o, advice, seed=seed), o


def _cmd_gen(args) -> int:
    params = {}
    for key in ("n", "m", "inv_epsilon", "seed", "j", "t"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.x is not None:
        params["x"] = [parse_rational(t) for t in args.x.split(",")]
    if args.delta is not None:
        params["delta"] = parse_rational(args.delta)
    inst, truth, advice = generate(GeneratorSpec(args.family, params))
    write_instance(inst, args.out)
    with open(args.out + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json_dict(), fh, indent=2)
        fh.write("\n")
    if advice is not None and advice.x_hat is not None:
        with open(args.out + ".hint.json", "w", encoding="utf-8") as fh:
            json.dump([format_rational(p) for p in advice.x_hat.probs], fh)
            fh.write("\n")
    print(f"wrote {args.out} (n={inst.n}, m={inst.m}, 1/eps={inst.inv_epsilon})")
    return 0


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    advice = _load_advice(args.advice_perm, args.advice_lottery)
    report, oracle = _run_solver(inst, args.solver, advice, args.seed,
                                 capture_trace=bool(args.trace))
    doc = report.to_json_dict()
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            oracle.ledger.write_trace_csv(fh)
    return EXIT_ACCEPTED if report.accepted else EXIT_NULL


def _is_agent(i, inst: Instance) -> bool:
    # bool is an int subclass; JSON true must not pass for agent 1.
    return type(i) is int and 1 <= i <= inst.n


def _verify_witness(witness, inst: Instance) -> list[str]:
    """Problems with a Null report's certificate; every Null must carry one.

    Accepted forms: {"reject_all": i} with i in 1..n, or {"helly": [...]}
    with at most m distinct agents in 1..n.
    """
    if isinstance(witness, dict) and list(witness) == ["reject_all"]:
        i = witness["reject_all"]
        if not _is_agent(i, inst):
            return [f"reject_all witness {i!r} is not an agent index in 1..{inst.n}"]
        agent = inst.agents[i - 1]
        if max(agent.utilities) >= agent.threshold:
            return [f"agent {i} does not reject every pure lottery"]
        return []
    if isinstance(witness, dict) and list(witness) == ["helly"]:
        agents = witness["helly"]
        if (not isinstance(agents, list) or len(agents) > inst.m
                or not all(_is_agent(i, inst) for i in agents)
                or len(set(agents)) != len(agents)):
            return [f"helly witness {agents!r} is not at most m={inst.m} "
                    f"distinct agent indices in 1..{inst.n}"]
        rows = [(i, normalized_row(inst.agents[i - 1])) for i in agents]
        problems = [f"witness agent {i} accepts everything" for i, row in rows if row is None]
        if not problems and select(ConstraintSet(inst.m, rows)) is not None:
            problems.append("claimed witness subset is feasible")
        return problems
    return [f'Null report needs a "helly" or a "reject_all" witness, got {witness!r}']


def _verify_report(doc: dict, inst: Instance) -> list[str]:
    """Return a list of violated claims (empty means the report checks out)."""
    problems = []
    outcome = doc.get("outcome", {})
    kind = outcome.get("kind")
    if kind == "Accepted":
        x = Lottery([parse_rational(t) for t in outcome["lottery"]])
        for i, agent in enumerate(inst.agents, start=1):
            if expected_utility(agent, x) < agent.threshold:
                problems.append(f"agent {i} rejects the reported lottery")
    elif kind == "Null":
        if feasible_full(inst) is not None:
            problems.append("instance is feasible but the report claims Null")
        problems += _verify_witness(outcome.get("witness"), inst)
    else:
        problems.append(f"unrecognized outcome kind {kind!r}")
    return problems


def _cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = _verify_report(doc, inst)
    if problems:
        for line in problems:
            print(f"FAIL: {line}")
        return 1
    print("pass")
    return 0


def _bench_row(path: str, inst: Instance, solver: str, advice: Advice,
               seed: int, report: SolveReport, wall_ms: float) -> list:
    per_cat = {cat.value: c for cat, c in report.ledger.per_category.items()}
    return [
        path, inst.n, inst.m, inst.inv_epsilon, solver, advice.kind, seed,
        report.outcome_kind, report.ledger.total,
        per_cat.get("PureVertex", 0), per_cat.get("ThresholdSearch", 0),
        per_cat.get("Verification", 0), per_cat.get("AdviceCheck", 0),
        len(report.learned_agents), report.record_count, report.iterations,
        f"{wall_ms:.3f}",
    ]


def _cmd_bench(args) -> int:
    solvers = args.solver or list(SOLVERS)
    advice = _load_advice(args.advice_perm, args.advice_lottery)
    rows = []
    for path in args.instances:
        inst = read_instance(path)
        for solver in solvers:
            seeds = range(args.seeds) if solver == "randomized" else [0]
            for seed in seeds:
                start = time.perf_counter()
                report, _ = _run_solver(inst, solver, advice, seed)
                wall_ms = (time.perf_counter() - start) * 1000.0
                rows.append(_bench_row(path, inst, solver, advice, seed, report, wall_ms))
    rows.sort(key=lambda r: (r[0], r[4], r[6]))
    try:
        with open(args.out, "r", encoding="utf-8") as fh:
            has_header = fh.readline().strip() != ""
    except FileNotFoundError:
        has_header = False
    with open(args.out, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not has_header:
            writer.writerow(BENCH_COLUMNS)
        writer.writerows(rows)
    print(f"appended {len(rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        sys.stderr.write(f"unanimity: i/o error: {exc}\n")
        return EXIT_IO
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"unanimity: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
