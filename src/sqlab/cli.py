"""Command-line interface.

Subcommands:

- ``gen``    build a problem instance from a generator and write it as JSON
- ``dims``   compute dimensions / norms for an instance
- ``audit``  run the structural audits (line family, game-vs-cover relation)
- ``solve``  run the kind-appropriate solver for repeated seeded trials
- ``stream`` run the sample-stream solver with its memory ledger
- ``merge``  combine result files from earlier runs into one report

Instances come either from ``--instance file.json`` or from ``--gen`` plus
generator parameters (``--n --k`` for biclique, ``--p --marginal`` for line,
``--kind`` for both). ``--config file.json`` supplies defaults for any flag;
explicit command-line values win. ``--seed`` is required whenever
``--trials`` exceeds 1 so that every reported number is reproducible;
reports contain no timestamps and serialize with sorted keys, so a rerun is
byte-identical. For the commands with per-trial rows (``solve``,
``stream``, ``merge``), ``--out`` ending in ``.csv`` writes those rows as
RFC-4180 CSV (CRLF line endings, minimal quoting, floats as %.17g, infinite
values as "inf"); ``gen``, ``dims`` and ``audit`` take no ``.csv``. Any other
``--out`` (or stdout) gets the JSON report.

Exit codes: 0 success, 1 usage or instance errors, 2 a failed audit, a
theorem-violation flag, or a broken resource bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import sys

import numpy as np

from . import io as sqio
from .core import (
    DECISION,
    K1,
    KV,
    SEARCH,
    VERIFIABLE,
    Measure,
    ProblemSpec,
)
from .dimension import (
    combined_relation_audit,
    crsd,
    rsd_decision,
    rsd_optimizing,
    rsd_search,
    rsd_verifiable,
    sd_decision,
    simple_lower_bound,
)
from .errors import GuardExceededError, SqlabError
from .games import shared_families
from .norms import kbar1, kbar2, kbar2_spectral, kbarv, rho
from .oracles import (
    OracleSession,
    edge_answers,
    exact_answers,
    one_stat_spec,
    reference_answers,
    sampled_answers,
    stat,
    vroot,
)
from .problems import biclique, line_audit, line_problem
from .solvers import (
    decision_cover,
    solve_decision_sampled,
    solve_optimizing,
    solve_search_universal,
    solve_verifiable,
)
from .streaming import SampleStream, stream_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this lab reserves 2
    for violated guarantees, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", help="problem instance JSON file")
    p.add_argument("--gen", choices=["biclique", "line"], help="generator name")
    p.add_argument("--n", type=int, help="biclique: number of variables")
    p.add_argument("--k", type=int, help="biclique: planted set size")
    p.add_argument("--p", type=int, help="line: field size")
    p.add_argument("--kind", help="problem kind (search/decision/verifiable)")
    p.add_argument("--marginal", help="line: marginal kind (skewed/uniform)")
    p.add_argument("--kappa", choices=[K1, KV], default=None, help="margin scale")
    p.add_argument("--config", help="JSON file of default flag values")
    p.add_argument("--tau", type=float, help="accuracy / margin radius")
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--alpha", type=float, help="solution-measure removal level")
    p.add_argument("--beta", type=float, help="target success level for lower bounds")
    p.add_argument("--eps", type=float, help="threshold-optimization accuracy")
    p.add_argument("--theta", type=float, help="verification threshold")
    p.add_argument("--oracle", choices=["stat", "vroot", "onestat"], help="oracle kind")
    p.add_argument("--param", type=float, help="oracle parameter (tau, n, or bits)")
    p.add_argument("--trials", type=int, default=1, help="number of seeded trials")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--out", help="output file (.csv for row output, else JSON)")
    p.add_argument(
        "--strategy",
        choices=["exact", "sampled", "reference", "edge-up", "edge-down"],
        default="exact",
        help="oracle answer strategy",
    )
    p.add_argument("--samples", type=int, help="per-answer sample count for --strategy sampled")
    p.add_argument("--mode", choices=["det", "rand"], default="det", help="solver mode")


def _config_takes(action: argparse.Action, value) -> bool:
    """Whether a ``--config`` value has a JSON type its flag can take: a list
    of strings for a list positional; otherwise a string, or a number for a
    numeric flag (a whole number for an integer one)."""
    if action.nargs == "*":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if isinstance(value, str):
        return True
    if isinstance(value, bool):  # a JSON true or false is no number
        return False
    if action.type is int:
        return isinstance(value, int)
    return action.type is float and isinstance(value, (int, float))


def _config_values(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The ``--config`` file's values, keyed by option name ({} without one).

    A string value is converted by its flag's type, as argparse converts a
    string default; an unknown key, a value of a JSON type its flag cannot
    take, or one outside its flag's choices, is a usage error.
    """
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read --config: {exc}")
    if not isinstance(conf, dict):
        parser.error("--config must contain a JSON object")
    actions = {action.dest: action for action in parser._actions}
    values = {}
    for key, value in conf.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"--config contains unknown option {key!r}")
        if not _config_takes(action, value):
            parser.error(f"--config has a value of the wrong type for {key!r}: {json.dumps(value)}")
        if isinstance(value, str) and action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                parser.error(f"--config has an invalid value for {key!r}: {value!r}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"--config has an invalid choice for {key!r}: {value!r}")
        values[action.dest] = value
    return values


def _build_problem(args, parser) -> ProblemSpec:
    if args.instance and args.gen:
        parser.error("give either --instance or --gen, not both")
    if args.instance:
        try:
            return sqio.load_problem(args.instance)
        except (OSError, KeyError, ValueError) as exc:
            parser.error(f"cannot load instance: {exc}")
    if not args.gen:
        parser.error("an instance is required: --instance FILE or --gen NAME")
    kind = args.kind or SEARCH
    try:
        if args.gen == "biclique":
            if args.n is None or args.k is None:
                parser.error("--gen biclique needs --n and --k")
            return biclique(args.n, args.k, kind=kind)
        if args.p is None:
            parser.error("--gen line needs --p")
        return line_problem(args.p, kind=kind, marginal=args.marginal or "skewed")
    except (GuardExceededError, ValueError) as exc:
        parser.error(str(exc))


def _require_seed(args, parser) -> None:
    if args.trials > 1 and args.seed is None:
        parser.error("--seed is required when --trials > 1")


def _trial_rng(seed, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed or 0, trial])


def _strategy(args, reference):
    if args.strategy == "exact":
        return exact_answers()
    if args.strategy == "sampled":
        if args.samples is None:
            raise SqlabError("--strategy sampled needs --samples")
        return sampled_answers(args.samples)
    if args.strategy == "reference":
        if reference is None:
            raise SqlabError("--strategy reference needs a problem with a reference")
        return reference_answers(reference)
    return edge_answers(+1 if args.strategy == "edge-up" else -1)


def _fmt_cell(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return "%.17g" % value
    if isinstance(value, (str, int, bool)) or value is None:
        return "" if value is None else str(value)
    return json.dumps(sqio.to_jsonable(value), sort_keys=True, separators=(",", ":"))


def _write_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in header])


def _emit(report: dict, args, rows=(), header=()) -> None:
    if args.out and args.out.endswith(".csv"):
        _write_csv(args.out, rows, header)
        return
    text = sqio.dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_SOLVE_COLUMNS = ("trial", "true", "outcome", "solution", "correct", "queries", "updates",
                  "valid_answer_fraction", "theorem_violation")
_STREAM_COLUMNS = ("trial", "true", "outcome", "solution", "correct", "updates", "samples",
                   "persistent_bits", "peak_bits", "within_bound")
# the commands whose reports have per-trial rows, which ``--out X.csv`` writes
_ROW_COMMANDS = ("solve", "stream", "merge")


def _count(rows, key) -> int:
    """How many rows hold a true value in column ``key``."""
    return sum(1 for r in rows if r.get(key))


def _mean(rows, key) -> float:
    """The mean of column ``key`` over the rows, 0 for no rows. A number
    counts as itself; a flag, and any other value a merged row may hold
    there, counts 1 when true (a missing value is false)."""
    total = 0
    for r in rows:
        value = r.get(key)
        total += value if isinstance(value, numbers.Real) else bool(value)
    return total / max(len(rows), 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args, parser) -> int:
    _emit(sqio.problem_to_dict(_build_problem(args, parser)), args)
    return EXIT_OK


def cmd_dims(args, parser) -> int:
    problem = _build_problem(args, parser)
    tau, kappa = args.tau, args.kappa or K1
    if tau is None:
        parser.error("dims needs --tau")
    report: dict = {
        "command": "dims",
        "kind": problem.kind,
        "dists": problem.n_dists,
        "domain": len(problem.domain),
        "tau": tau,
        "kappa": kappa,
    }

    def attempt(name, fn, *fields):
        """Report ``fn()``'s value, its ``fields``, or why it was skipped."""
        try:
            out = fn()
        except (SqlabError, ValueError) as exc:
            report[name] = {"skipped": str(exc)}
            return
        report[name] = {f: getattr(out, f) for f in fields} if fields else out.value

    dists = list(problem.dists)
    with shared_families():
        if problem.reference is not None:
            d0 = problem.reference
            attempt("rsd_decision", lambda: rsd_decision(dists, d0, tau, kappa), "value", "exactness")
            attempt("sd_decision", lambda: sd_decision(dists, d0, tau, kappa), "value")
            attempt("crsd", lambda: crsd(dists, d0, kappa), "value", "exactness")
            mu = Measure.uniform(problem.n_dists)
            attempt("kbar1", lambda: kbar1(mu, dists, d0))
            attempt("kbar2", lambda: kbar2(mu, dists, d0))
            attempt("kbar2_spectral", lambda: kbar2_spectral(mu, dists, d0))
            attempt("rho", lambda: rho(dists, d0))
            attempt("kbarv", lambda: kbarv(mu, dists, d0))
            if args.beta is not None:
                attempt("simple_lower_bound", lambda: simple_lower_bound(problem, mu, d0, tau, args.beta))
        if problem.kind == SEARCH:
            alpha = 1.0 if args.alpha is None else args.alpha
            attempt("rsd_search", lambda: rsd_search(problem, tau, alpha, kappa), "value", "exactness")
        if problem.kind == VERIFIABLE:
            theta = args.theta if args.theta is not None else problem.threshold
            attempt("rsd_verifiable", lambda: rsd_verifiable(problem, theta, tau, kappa), "value")
            if args.eps is not None:
                attempt("rsd_optimizing", lambda: rsd_optimizing(problem, args.eps, tau, kappa), "value")
    _emit(report, args)
    return EXIT_OK


def cmd_audit(args, parser) -> int:
    report: dict = {"command": "audit", "checks": []}
    failed = False
    if args.gen == "line" or (args.gen is None and args.p is not None):
        if args.p is None:
            parser.error("the line audit needs --p")
        try:
            report["line_audit"] = line_audit(args.p)
            report["checks"].append({"name": "line_audit", "ok": True})
        except (GuardExceededError, ValueError) as exc:  # a p too large, or no prime
            parser.error(str(exc))
        except AssertionError as exc:
            report["line_audit"] = {"failed": str(exc)}
            report["checks"].append({"name": "line_audit", "ok": False})
            failed = True
    else:
        problem = _build_problem(args, parser)
        if problem.reference is None:
            parser.error("the relation audit needs an instance with a reference")
        try:
            rel = combined_relation_audit(list(problem.dists), problem.reference)
        except SqlabError as exc:
            parser.error(str(exc))
        report["relation_audit"] = rel
        report["checks"].append({"name": "combined_relation", "ok": bool(rel["pass"])})
        failed = failed or not rel["pass"]
    _emit(report, args)
    return EXIT_VIOLATION if failed else EXIT_OK


def _session(args, problem, kind: str, tolerance: float, true_dist, rng) -> OracleSession:
    """The trial's oracle session: ``--oracle``/``--param`` or the solver's
    default kind and tolerance, answered by ``--strategy`` on ``true_dist``."""
    kind = args.oracle or kind
    param = args.param if args.param is not None else tolerance
    build = {"stat": stat, "vroot": vroot, "onestat": lambda bits: one_stat_spec(int(bits))}
    try:
        spec = build[kind](param)
    except ValueError as exc:  # a parameter this oracle kind cannot take
        raise SqlabError(f"--oracle {kind} --param {param:g}: {exc}") from exc
    return OracleSession(spec, _strategy(args, problem.reference), true_dist, rng)


def _solve_one_trial(problem, args, rng, cover) -> dict:
    tau = args.tau
    if problem.kind == DECISION:
        is_ref = bool(rng.random() < 0.5)
        true_dist = problem.reference if is_ref else problem.dists[int(rng.integers(problem.n_dists))]
        session = _session(args, problem, "stat", tau / 2.0, true_dist, rng)
        rep = solve_decision_sampled(problem, tau, args.delta or 0.1, session, rng, cover=cover)
        truth = "reference" if is_ref else "family"
        correct = (rep.solution == "reference") == is_ref
    else:
        ti = int(rng.integers(problem.n_dists))
        true_dist = problem.dists[ti]
        truth = problem.solutions[ti]
        if problem.kind == SEARCH:
            kappa = args.kappa or K1
            session = _session(args, problem, "stat" if kappa == K1 else "vroot", tau / 3.0, true_dist, rng)
            rand = args.mode == "rand"
            rep = solve_search_universal(
                problem, tau, session, kappa=kappa, mode=args.mode,
                delta=args.delta if rand else None, rng=rng if rand else None,
            )
            correct = rep.solution == truth
        else:  # VERIFIABLE: optimize to --eps when it comes without --theta, else verify
            value = {f: float(true_dist.weights @ problem.verify[f].values) for f in problem.solutions}
            if args.eps is not None and args.theta is None:
                session = _session(args, problem, "stat", tau / 4.0, true_dist, rng)
                rep = solve_optimizing(problem, args.eps, tau, session)
                bound = min(value.values()) + args.eps
            else:
                bound = args.theta if args.theta is not None else problem.threshold
                session = _session(args, problem, "stat", tau / 3.0, true_dist, rng)
                rep = solve_verifiable(problem, bound, tau, session)
            correct = rep.solution is not None and value[rep.solution] <= bound + tau + 1e-9
    row = {
        "true": truth,
        "outcome": rep.outcome,
        "solution": rep.solution,
        "correct": bool(correct),
        "queries": rep.queries,
        "updates": rep.updates,
        "valid_answer_fraction": rep.valid_answer_fraction,
        "theorem_violation": bool(rep.theorem_violation),
    }
    if rep.details.get("cover_incomplete"):  # close members the proposal leaves unserved
        row["cover_incomplete"] = rep.details["cover_incomplete"]
    return row


def _stream_one_trial(problem, args, rng) -> dict:
    ti = int(rng.integers(problem.n_dists))
    stream = SampleStream(problem.dists[ti], rng)
    rep = stream_solve(problem, args.tau, args.delta, stream)
    ledger = rep["ledger"]
    truth = problem.solutions[ti]
    return {
        "true": truth,
        "outcome": rep["outcome"],
        "solution": rep["solution"],
        "correct": rep["solution"] == truth,
        "updates": rep["updates"],
        "samples": stream.drawn,
        "persistent_bits": ledger["persistent_bits"],
        "peak_bits": ledger["peak_bits"],
        "within_bound": ledger["within_bound"],
    }


def _run_trials(command, problem, args, parser, columns, one_trial, summarize) -> dict:
    """Run the seeded trials of ``solve`` or ``stream``, emit the run report
    and return its summary.

    Trial t runs ``one_trial(rng)`` on its own ``_trial_rng(seed, t)``; a lab
    error in a trial is a usage error. ``summarize(rows)`` gives the
    command's summary fields beside ``success_rate``.
    """
    rows = []
    for trial in range(args.trials):
        try:
            rows.append({"trial": trial, **one_trial(_trial_rng(args.seed, trial))})
        except SqlabError as exc:
            parser.error(str(exc))
    summary = {"success_rate": _mean(rows, "correct"), **summarize(rows)}
    report = {
        "command": command,
        "kind": problem.kind,
        "dists": problem.n_dists,
        "tau": args.tau,
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed,
        "results": rows,
        "summary": summary,
    }
    _emit(report, args, rows, columns)
    return summary


def cmd_solve(args, parser) -> int:
    problem = _build_problem(args, parser)
    if args.tau is None:
        parser.error("solve needs --tau")
    if problem.kind == SEARCH and args.mode == "rand" and args.delta is None:
        parser.error("--mode rand needs --delta")
    _require_seed(args, parser)
    cover = None
    if problem.kind == DECISION:
        try:
            cover = decision_cover(problem, args.tau)
        except SqlabError as exc:
            parser.error(str(exc))
    summary = _run_trials(
        "solve", problem, args, parser, _SOLVE_COLUMNS,
        lambda rng: _solve_one_trial(problem, args, rng, cover),
        lambda rows: {
            "mean_queries": _mean(rows, "queries"),
            "mean_updates": _mean(rows, "updates"),
            "theorem_violations": _count(rows, "theorem_violation"),
        },
    )
    return EXIT_VIOLATION if summary["theorem_violations"] else EXIT_OK


def cmd_stream(args, parser) -> int:
    problem = _build_problem(args, parser)
    if problem.kind != SEARCH:
        parser.error("stream solves search instances")
    if args.tau is None or args.delta is None:
        parser.error("stream needs --tau and --delta")
    _require_seed(args, parser)
    summary = _run_trials(
        "stream", problem, args, parser, _STREAM_COLUMNS,
        lambda rng: _stream_one_trial(problem, args, rng),
        lambda rows: {
            "mean_samples": _mean(rows, "samples"),
            "bound_broken": not all(r["within_bound"] for r in rows),
        },
    )
    return EXIT_VIOLATION if summary["bound_broken"] else EXIT_OK


def cmd_merge(args, parser) -> int:
    if not args.inputs:
        parser.error("merge needs input report files")
    merged_rows = []
    commands = set()
    for path in args.inputs:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read {path}: {exc}")
        if not isinstance(data, dict):
            parser.error(f"{path} is not a report: it must contain a JSON object")
        rows = data.get("results", [])
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            parser.error(f"{path} is not a report: its results must be a list of JSON objects")
        commands.add(data.get("command"))
        merged_rows.extend(rows)
    violations = _count(merged_rows, "theorem_violation")
    report = {
        "command": "merge",
        "sources": list(args.inputs),
        "source_commands": sorted(str(c) for c in commands),
        "results": merged_rows,
        "summary": {
            "trials": len(merged_rows),
            "success_rate": _mean(merged_rows, "correct"),
            "theorem_violations": violations,
        },
    }
    header = sorted({key for row in merged_rows for key in row})
    _emit(report, args, merged_rows, header)
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen": cmd_gen,
    "dims": cmd_dims,
    "audit": cmd_audit,
    "solve": cmd_solve,
    "stream": cmd_stream,
    "merge": cmd_merge,
}


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and one parser per subcommand, built once.

    Parsing leaves a parser as it was: ``--config`` values go into the
    parse namespace, never into a parser's defaults.
    """
    parser = _Parser(prog="sqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {}
    for name, handler in _COMMANDS.items():
        p = handlers[name] = sub.add_parser(name)
        _add_common(p)
        if name == "merge":
            p.add_argument("inputs", nargs="*", help="result JSON files to merge")
        p.set_defaults(handler=handler)
    return parser, handlers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, handlers = _parsers()
    args = parser.parse_args(argv)
    sub = handlers[args.command]
    values = _config_values(args, sub)
    if values:
        # Parse the subcommand's arguments again into a namespace that holds
        # the file's values: argparse fills in a default only where the
        # namespace has none, and every flag given on the command line wins.
        rest = argv[argv.index(args.command) + 1 :]
        args = sub.parse_args(rest, namespace=argparse.Namespace(command=args.command, **values))
        # A positional is always set by the parse (``[]`` for nargs="*" when
        # the command line gives none); the file's value stands in for that.
        for action in sub._actions:
            if not action.option_strings and action.dest in values and not getattr(args, action.dest):
                setattr(args, action.dest, values[action.dest])
    # A K1 margin lies in [0, 2], a removal level and a target success level
    # in (0, 1], a verification threshold in [0, 1] (verify queries take
    # values there), a failure probability in (0, 1) and an optimization
    # accuracy in [0, inf); numpy seeds are non-negative, and a run makes one
    # trial or more. Each test is written so that NaN fails it.
    if args.tau is not None and not 0 < args.tau <= 2:
        sub.error(f"--tau must lie in (0, 2], not {args.tau:g}")
    if args.alpha is not None and not 0 < args.alpha <= 1:
        sub.error(f"--alpha must lie in (0, 1], not {args.alpha:g}")
    if args.theta is not None and not 0 <= args.theta <= 1:
        sub.error(f"--theta must lie in [0, 1], not {args.theta:g}")
    if args.beta is not None and not 0 < args.beta <= 1:
        sub.error(f"--beta must lie in (0, 1], not {args.beta:g}")
    if args.delta is not None and not 0 < args.delta < 1:
        sub.error(f"--delta must lie in (0, 1), not {args.delta:g}")
    if args.eps is not None and not args.eps >= 0:
        sub.error(f"--eps must be at least 0, not {args.eps:g}")
    if args.seed is not None and args.seed < 0:
        sub.error(f"--seed must be at least 0, not {args.seed}")
    if args.trials < 1:
        sub.error(f"--trials must be at least 1, not {args.trials}")
    if args.samples is not None and args.samples < 1:
        sub.error(f"--samples must be at least 1, not {args.samples}")
    if args.out and args.out.endswith(".csv") and args.command not in _ROW_COMMANDS:
        sub.error(f"--out {args.out}: {args.command} writes a JSON report; "
                  "a .csv file takes the per-trial rows of solve, stream and merge")
    try:
        return args.handler(args, sub)
    except SqlabError as exc:
        sys.stderr.write(f"sqlab: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
