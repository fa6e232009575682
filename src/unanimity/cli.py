"""Command line harness: generate, solve, verify, and benchmark.

Subcommands (run as ``python -m unanimity ...``):

* ``gen``    -- build an instance from a generator family and write it to a
  JSON file, plus a ground-truth sidecar (and a hint sidecar when the
  family prescribes one).
* ``solve``  -- run a solver on an instance file and emit a JSON report.
  Exit code 0 means a unanimously acceptable lottery was found, 3 means a
  certified Null.  Advice that does not fit the instance is refused before
  any query, by every solver, baseline included.  An ``--out`` or
  ``--trace`` that names the same file as another file of the command is
  refused before anything is written.
* ``verify`` -- re-check a report against its instance without the oracle:
  every agent's membership test for an Accepted lottery, and for a Helly
  witness (a ``reject_all`` witness is its one-agent case) ``feasible_full``,
  the solvers' own LP (``select``); ROADMAP item 4 (Farkas certificates)
  would remove that dependency on the solver.
* ``bench``  -- sweep (instance, solver, seed) combinations and append
  rows to a CSV table.  An ``--out`` that names one of its input files is
  refused before any solver runs, and advice that does not fit an instance
  before any solver runs on it.

Usage and I/O errors exit with code >= 64.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import cache
from operator import mul

from unanimity.core import Instance, Lottery, format_rational, parse_rational
from unanimity.feasibility import feasible_full
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


@cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use.

    Reuse is safe: ``parse_args`` returns a fresh namespace on every call
    and leaves the parser as it was.
    """
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
    b.add_argument("--out", required=True, help="CSV path (appended, never rewritten)")
    return p


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # Malformed input like any other, not a crash.
            raise ValueError(f"{what} file {path} is nested too deeply") from None


def _load_json_list(path: str, what: str) -> list:
    doc = _load_json(path, what)
    if not isinstance(doc, list):
        raise ValueError(f"{what} file {path} must hold a JSON list, got {doc!r}")
    return doc


def _load_advice(perm_path, lottery_path) -> Advice:
    order = _load_json_list(perm_path, "--advice-perm") if perm_path else None
    x_hat = None
    if lottery_path:
        probs = _load_json_list(lottery_path, "--advice-lottery")
        x_hat = Lottery([parse_rational(t) for t in probs])
    return Advice(order=order, x_hat=x_hat)


def _run_solver(inst: Instance, solver: str, advice: Advice, seed: int,
                capture_trace: bool = False) -> SolveReport:
    o = Oracle(inst, capture_trace=capture_trace)
    if solver == "baseline":
        return solve_baseline(o)
    if solver == "deterministic":
        return solve_deterministic(o, advice)
    return solve_randomized(o, advice, seed=seed)


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


def _dumps_indented(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for dicts with string keys, lists and
    JSON scalars.

    With ``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder.
    Here each container that holds only scalars is one call of the C
    encoder, with the newline and indentation folded into its item
    separator, so a report's per-agent map is a single C call.
    """
    if not obj or not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    inner = indent + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(v, (dict, list)) for v in values):
        text = json.dumps(obj, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + indent + text[-1]
    if isinstance(obj, dict):
        items = [json.dumps(k) + ": " + _dumps_indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [_dumps_indented(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _refuse_shared_files(files) -> None:
    """Refuse a command whose ``--out`` or ``--trace`` names the same file
    as another of its files, before anything is read or written.

    ``files`` lists (label, path) pairs; a None path is skipped.  Existing
    paths are compared by device and inode, as ``os.path.samefile`` does;
    a path that does not exist yet, by its normalized absolute form.
    """
    seen = {}
    for what, path in files:
        if not path:
            continue
        try:
            st = os.stat(path)
            key = (st.st_dev, st.st_ino)
        except OSError:
            key = os.path.abspath(path)
        if key in seen and what in ("--out", "--trace"):
            raise ValueError(f"{seen[key]} and {what} name the same file {path}")
        seen.setdefault(key, what)


def _cmd_solve(args) -> int:
    _refuse_shared_files([("the instance", args.instance), ("--advice-perm", args.advice_perm),
                          ("--advice-lottery", args.advice_lottery), ("--out", args.out),
                          ("--trace", args.trace)])
    inst = read_instance(args.instance)
    advice = _load_advice(args.advice_perm, args.advice_lottery)
    advice.check(inst.n, inst.m)
    report = _run_solver(inst, args.solver, advice, args.seed,
                         capture_trace=bool(args.trace))
    doc = report.to_json_dict()
    text = _dumps_indented(doc) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            report.ledger.write_trace_csv(fh)
        ledger = report.ledger
        if ledger.trace_dropped:
            sys.stderr.write(
                f"unanimity: warning: trace {args.trace} holds the first "
                f"{len(ledger.trace)} of {ledger.total} queries; "
                f"{ledger.trace_dropped} were not recorded\n")
    return EXIT_ACCEPTED if report.accepted else EXIT_NULL


def _is_agent(i, inst: Instance) -> bool:
    # bool is an int subclass; JSON true must not pass for agent 1.
    return type(i) is int and 1 <= i <= inst.n


def _verify_witness(witness, inst: Instance) -> list[str]:
    """Problems with a Null report's certificate; every Null must carry one.

    Accepted forms: {"helly": [...]} with at most m distinct agents in 1..n,
    and {"reject_all": i}, judged as the one-agent Helly witness [i].  A
    witness fails when one of its agents accepts everything or when the
    sub-instance of its agents is feasible.
    """
    if not (isinstance(witness, dict) and list(witness) in (["helly"], ["reject_all"])):
        return [f'Null report needs a "helly" or a "reject_all" witness, got {witness!r}']
    [(key, claim)] = witness.items()
    agents = claim if key == "helly" else [claim]
    if (not isinstance(agents, list) or len(agents) > inst.m
            or not all(_is_agent(i, inst) for i in agents)
            or len(set(agents)) != len(agents)):
        return [f"{key} witness {claim!r} is not at most m={inst.m} "
                f"distinct agent indices in 1..{inst.n}"]
    rows = tuple(inst.grid_rows[i - 1] for i in agents)
    problems = [f"witness agent {i} accepts everything"
                for i, (U, T) in zip(agents, rows) if min(U) >= T]
    sub = Instance._from_grid_rows(inst.m, inst.inv_epsilon, rows)
    if not problems and feasible_full(sub) is not None:
        problems.append("claimed witness subset is feasible")
    return problems


def _verify_report(doc, inst: Instance) -> list[str]:
    """Return a list of violated claims (empty means the report checks out).

    A valid Null witness proves the whole instance infeasible, so a Null
    report is judged by its witness alone.
    """
    outcome = doc.get("outcome") if isinstance(doc, dict) else None
    if not isinstance(outcome, dict):
        return [f'report needs an "outcome" object, got {outcome!r}']
    kind = outcome.get("kind")
    if kind == "Accepted":
        lottery = outcome.get("lottery")
        if not isinstance(lottery, list):
            return [f'Accepted report needs a "lottery" list, got {lottery!r}']
        x = Lottery([parse_rational(t) for t in lottery])
        if x.m != inst.m:
            raise ValueError(f"dimension mismatch: instance has {inst.m}, lottery {x.m}")
        # The oracle's membership test for every agent, inline and without
        # the oracle, so verify judges the solver independently; x's integer
        # form is read once.
        P, D = x.scaled
        return [f"agent {i} rejects the reported lottery"
                for i, (U, T) in enumerate(inst.grid_rows, start=1)
                if sum(map(mul, U, P)) < T * D]
    if kind == "Null":
        return _verify_witness(outcome.get("witness"), inst)
    return [f"unrecognized outcome kind {kind!r}"]


def _cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    doc = _load_json(args.report, "report")
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
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1 (got {args.seeds})")
    _refuse_shared_files([("the instance", path) for path in args.instances]
                         + [("--advice-perm", args.advice_perm),
                            ("--advice-lottery", args.advice_lottery), ("--out", args.out)])
    solvers = args.solver or list(SOLVERS)
    advice = _load_advice(args.advice_perm, args.advice_lottery)
    rows = []
    for path in args.instances:
        inst = read_instance(path)
        advice.check(inst.n, inst.m)
        for solver in solvers:
            seeds = range(args.seeds) if solver == "randomized" else [0]
            for seed in seeds:
                start = time.perf_counter()
                report = _run_solver(inst, solver, advice, seed)
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
