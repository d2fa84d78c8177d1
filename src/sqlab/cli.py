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
byte-identical. ``--out`` ending in ``.csv`` writes the per-trial rows as
RFC-4180 CSV (CRLF line endings, minimal quoting, floats as %.17g, infinite
values as "inf"); any other ``--out`` (or stdout) gets the JSON report.

Exit codes: 0 success, 1 usage or instance errors, 2 a failed audit, a
theorem-violation flag, or a broken resource bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
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
from .errors import GuardExceededError, SqlabError, UncoverableError
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
    vstat,
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
    p.add_argument(
        "--oracle", choices=["stat", "vstat", "vroot", "onestat"], help="oracle kind"
    )
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


def _config_values(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The ``--config`` file's values, keyed by option name ({} without one).

    A string value is converted by its flag's type, as argparse converts a
    string default; an unknown key is a usage error.
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
        if isinstance(value, str) and action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                parser.error(f"--config has an invalid value for {key!r}: {value!r}")
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
    if seed is None:
        return np.random.default_rng([0, trial])
    return np.random.default_rng([seed, trial])


def _oracle_spec(args, default_kind: str, default_param: float):
    kind = args.oracle or default_kind
    param = args.param if args.param is not None else default_param
    build = {"stat": stat, "vstat": vstat, "vroot": vroot,
             "onestat": lambda bits: one_stat_spec(int(bits))}
    try:
        return build[kind](param)
    except ValueError as exc:  # a parameter this oracle kind cannot take
        raise SqlabError(f"--oracle {kind} --param {param:g}: {exc}") from exc


def _strategy(args, reference):
    if args.strategy == "exact":
        return exact_answers()
    if args.strategy == "sampled":
        if not args.samples:
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


def _emit(report: dict, rows, header, args) -> None:
    if args.out and args.out.endswith(".csv"):
        _write_csv(args.out, rows or [], header or [])
        return
    text = sqio.dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args, parser) -> int:
    problem = _build_problem(args, parser)
    payload = sqio.problem_to_dict(problem)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(sqio.dumps_report(payload))
    else:
        sys.stdout.write(sqio.dumps_report(payload))
    return EXIT_OK


def cmd_dims(args, parser) -> int:
    problem = _build_problem(args, parser)
    if args.tau is None:
        parser.error("dims needs --tau")
    kappa = args.kappa or K1
    report: dict = {
        "command": "dims",
        "kind": problem.kind,
        "dists": problem.n_dists,
        "domain": len(problem.domain),
        "tau": args.tau,
        "kappa": kappa,
    }

    def attempt(name, fn):
        try:
            out = fn()
        except (GuardExceededError, UncoverableError, SqlabError, ValueError) as exc:
            report[name] = {"skipped": str(exc)}
            return
        report[name] = out

    dists = list(problem.dists)
    if problem.reference is not None:
        d0 = problem.reference
        # rsd_decision enumerates the achievable family once and sd_decision
        # reads it; when rsd_decision fails, sd_decision builds its own.
        family = None

        def rsd():
            nonlocal family
            r = rsd_decision(dists, d0, args.tau, kappa)
            family = r.family
            return {"value": r.value, "exactness": r.exactness}

        attempt("rsd_decision", rsd)
        attempt(
            "sd_decision",
            lambda: {"value": sd_decision(dists, d0, args.tau, kappa, family=family).value},
        )
        attempt(
            "crsd",
            lambda: {
                "value": (c := crsd(dists, d0, kappa)).value,
                "exactness": c.exactness,
            },
        )
        mu = Measure.uniform(problem.n_dists)
        attempt("kbar1", lambda: kbar1(mu, dists, d0).value)
        attempt("kbar2", lambda: kbar2(mu, dists, d0).value)
        attempt("kbar2_spectral", lambda: kbar2_spectral(mu, dists, d0).value)
        attempt("rho", lambda: rho(dists, d0).value)
        attempt("kbarv", lambda: kbarv(mu, dists, d0).value)
        if args.beta is not None:
            attempt(
                "simple_lower_bound",
                lambda: simple_lower_bound(problem, mu, d0, args.tau, args.beta).value,
            )
    if problem.kind == SEARCH:
        attempt(
            "rsd_search",
            lambda: {
                "value": (s := rsd_search(problem, args.tau, alpha=args.alpha or 1.0, kappa=kappa)).value,
                "exactness": s.exactness,
            },
        )
    if problem.kind == VERIFIABLE:
        theta = args.theta if args.theta is not None else problem.threshold
        attempt(
            "rsd_verifiable",
            lambda: {"value": rsd_verifiable(problem, theta=theta, tau=args.tau, kappa=kappa).value},
        )
        if args.eps is not None:
            attempt(
                "rsd_optimizing",
                lambda: {"value": rsd_optimizing(problem, eps=args.eps, tau=args.tau, kappa=kappa).value},
            )
    _emit(report, None, None, args)
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
        except (GuardExceededError, SqlabError) as exc:
            parser.error(str(exc))
        report["relation_audit"] = rel
        report["checks"].append({"name": "combined_relation", "ok": bool(rel["pass"])})
        failed = failed or not rel["pass"]
    _emit(report, None, None, args)
    return EXIT_VIOLATION if failed else EXIT_OK


def _solve_one_trial(problem, args, trial, cover=None):
    rng = _trial_rng(args.seed, trial)
    tau = args.tau
    row = {"trial": trial}
    if problem.kind == DECISION:
        is_ref = bool(rng.random() < 0.5)
        true_dist = problem.reference if is_ref else problem.dists[int(rng.integers(problem.n_dists))]
        spec = _oracle_spec(args, "stat", tau / 2.0)
        session = OracleSession(spec, _strategy(args, problem.reference), true_dist, rng)
        rep = solve_decision_sampled(problem, tau, args.delta or 0.1, session, rng, cover=cover)
        correct = (rep.solution == "reference") == is_ref
        row.update(true="reference" if is_ref else "family")
    elif problem.kind == SEARCH:
        ti = int(rng.integers(problem.n_dists))
        true_dist = problem.dists[ti]
        kappa = args.kappa or K1
        default_kind = "stat" if kappa == K1 else "vroot"
        spec = _oracle_spec(args, default_kind, tau / 3.0)
        session = OracleSession(spec, _strategy(args, problem.reference), true_dist, rng)
        rep = solve_search_universal(
            problem,
            tau,
            session,
            kappa=kappa,
            mode=args.mode,
            delta=args.delta if args.mode == "rand" else None,
            rng=rng if args.mode == "rand" else None,
        )
        correct = rep.solution == problem.solutions[ti]
        row.update(true=problem.solutions[ti])
    elif args.eps is not None and args.theta is None:  # the kind is VERIFIABLE from here on
        ti = int(rng.integers(problem.n_dists))
        true_dist = problem.dists[ti]
        spec = _oracle_spec(args, "stat", tau / 4.0)
        session = OracleSession(spec, _strategy(args, problem.reference), true_dist, rng)
        rep = solve_optimizing(problem, args.eps, tau, session)
        if rep.solution is None:
            correct = False
        else:
            achieved = float(true_dist.weights @ problem.verify[rep.solution].values)
            optimum = min(
                float(true_dist.weights @ problem.verify[f].values) for f in problem.solutions
            )
            correct = achieved <= optimum + args.eps + tau + 1e-9
        row.update(true=problem.solutions[ti])
    else:
        ti = int(rng.integers(problem.n_dists))
        true_dist = problem.dists[ti]
        theta = args.theta if args.theta is not None else problem.threshold
        spec = _oracle_spec(args, "stat", tau / 3.0)
        session = OracleSession(spec, _strategy(args, problem.reference), true_dist, rng)
        rep = solve_verifiable(problem, theta, tau, session)
        if rep.solution is None:
            correct = False
        else:
            achieved = float(true_dist.weights @ problem.verify[rep.solution].values)
            correct = achieved <= theta + tau + 1e-9
        row.update(true=problem.solutions[ti])
    row.update(
        outcome=rep.outcome,
        solution=rep.solution,
        correct=bool(correct),
        queries=rep.queries,
        updates=rep.updates,
        valid_answer_fraction=rep.valid_answer_fraction,
        theorem_violation=bool(rep.theorem_violation),
    )
    if rep.details.get("cover_incomplete"):  # close members the proposal leaves unserved
        row["cover_incomplete"] = rep.details["cover_incomplete"]
    return row


def cmd_solve(args, parser) -> int:
    problem = _build_problem(args, parser)
    if args.tau is None:
        parser.error("solve needs --tau")
    _require_seed(args, parser)
    rows = []
    cover = None
    if problem.kind == DECISION:
        try:
            cover = decision_cover(problem, args.tau)
        except (UncoverableError, SqlabError) as exc:
            parser.error(str(exc))
    for trial in range(args.trials):
        try:
            rows.append(_solve_one_trial(problem, args, trial, cover=cover))
        except (UncoverableError, SqlabError) as exc:
            parser.error(str(exc))
    n_ok = sum(1 for r in rows if r["correct"])
    violations = sum(1 for r in rows if r["theorem_violation"])
    report = {
        "command": "solve",
        "kind": problem.kind,
        "dists": problem.n_dists,
        "tau": args.tau,
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed,
        "results": rows,
        "summary": {
            "success_rate": n_ok / max(len(rows), 1),
            "mean_queries": sum(r["queries"] for r in rows) / max(len(rows), 1),
            "mean_updates": sum(r["updates"] for r in rows) / max(len(rows), 1),
            "theorem_violations": violations,
        },
    }
    header = [
        "trial",
        "true",
        "outcome",
        "solution",
        "correct",
        "queries",
        "updates",
        "valid_answer_fraction",
        "theorem_violation",
    ]
    _emit(report, rows, header, args)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_stream(args, parser) -> int:
    problem = _build_problem(args, parser)
    if problem.kind != SEARCH:
        parser.error("stream solves search instances")
    if args.tau is None or args.delta is None:
        parser.error("stream needs --tau and --delta")
    _require_seed(args, parser)
    rows = []
    bound_broken = False
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, trial)
        ti = int(rng.integers(problem.n_dists))
        stream = SampleStream(problem.dists[ti], rng)
        rep = stream_solve(problem, args.tau, args.delta, stream)
        ledger = rep["ledger"]
        row = {
            "trial": trial,
            "true": problem.solutions[ti],
            "outcome": rep["outcome"],
            "solution": rep["solution"],
            "correct": rep["solution"] == problem.solutions[ti],
            "updates": rep["updates"],
            "samples": stream.drawn,
            "persistent_bits": ledger["persistent_bits"],
            "peak_bits": ledger["peak_bits"],
            "within_bound": ledger["within_bound"],
        }
        rows.append(row)
        bound_broken = bound_broken or not row["within_bound"]
    n_ok = sum(1 for r in rows if r["correct"])
    report = {
        "command": "stream",
        "kind": problem.kind,
        "dists": problem.n_dists,
        "tau": args.tau,
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed,
        "results": rows,
        "summary": {
            "success_rate": n_ok / max(len(rows), 1),
            "mean_samples": sum(r["samples"] for r in rows) / max(len(rows), 1),
            "bound_broken": bound_broken,
        },
    }
    header = [
        "trial",
        "true",
        "outcome",
        "solution",
        "correct",
        "updates",
        "samples",
        "persistent_bits",
        "peak_bits",
        "within_bound",
    ]
    _emit(report, rows, header, args)
    return EXIT_VIOLATION if bound_broken else EXIT_OK


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
        commands.add(data.get("command"))
        merged_rows.extend(data.get("results", []))
    n_ok = sum(1 for r in merged_rows if r.get("correct"))
    violations = sum(1 for r in merged_rows if r.get("theorem_violation"))
    report = {
        "command": "merge",
        "sources": list(args.inputs),
        "source_commands": sorted(str(c) for c in commands),
        "results": merged_rows,
        "summary": {
            "trials": len(merged_rows),
            "success_rate": n_ok / max(len(merged_rows), 1),
            "theorem_violations": violations,
        },
    }
    header = sorted({key for row in merged_rows for key in row})
    _emit(report, merged_rows, header, args)
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
    # A K1 margin lies in [0, 2], and a failure probability in (0, 1).
    if args.tau is not None and not 0 < args.tau <= 2:
        sub.error(f"--tau must lie in (0, 2], not {args.tau:g}")
    if args.delta is not None and not 0 < args.delta < 1:
        sub.error(f"--delta must lie in (0, 1), not {args.delta:g}")
    try:
        return args.handler(args, sub)
    except SqlabError as exc:
        sys.stderr.write(f"sqlab: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
