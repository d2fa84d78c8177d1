"""Command-line interface: subcommand wiring, deterministic output, CSV
formatting, and exit-code conventions (0 ok, 1 usage, 2 broken guarantee)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqlab import biclique
from sqlab import io as sqio
from sqlab.cli import main


def run_cli(argv, capsys=None):
    """Invoke the CLI in-process; normalize SystemExit into a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out if capsys is not None else None
    return code, out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_emits_parseable_problem(capsys):
    code, out = run_cli(["gen", "--gen", "biclique", "--n", "4", "--k", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    prob = sqio.problem_from_dict(payload)
    assert prob.kind == "search" and prob.n_dists == 6


def test_gen_reruns_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _ = run_cli(
            ["gen", "--gen", "line", "--p", "3", "--kind", "decision", "--out", str(p)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gen_instance_roundtrip_through_solve(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _ = run_cli(["gen", "--gen", "biclique", "--n", "4", "--k", "2", "--out", str(inst)], capsys)
    assert code == 0
    code, out = run_cli(
        ["solve", "--instance", str(inst), "--tau", "0.3", "--trials", "2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["success_rate"] == 1.0
    assert report["summary"]["theorem_violations"] == 0


def test_an_instance_of_an_unknown_kind_is_a_usage_error(tmp_path, capsys):
    """No generator builds a "pac" instance and no solver takes one."""
    payload = sqio.problem_to_dict(biclique(4, 2, kind="verifiable"))
    path = tmp_path / "pac.json"
    path.write_text(json.dumps({**payload, "kind": "pac"}))
    for command in ("solve", "dims"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--instance", str(path), "--tau", "0.2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"sqlab {command}: error: cannot load instance: unknown problem kind 'pac'" in err


def test_an_instance_with_a_nan_weight_is_a_usage_error(tmp_path):
    """Python's json reads NaN; the distribution refuses it, so the load
    is a usage error and not a traceback from the norms."""
    payload = sqio.problem_to_dict(biclique(3, 1))
    payload["dists"][0][0] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    line = _assert_one_usage_error(["dims", "--instance", str(path), "--tau", "0.2"])
    assert "cannot load instance: distribution weights must be finite" in line


def test_gen_usage_errors(capsys):
    code, _ = run_cli(["gen"], capsys)  # neither --instance nor --gen
    assert code == 1
    code, _ = run_cli(["gen", "--gen", "biclique", "--n", "4"], capsys)  # no --k
    assert code == 1


# ---------------------------------------------------------------------------
# dims / audit
# ---------------------------------------------------------------------------


def test_dims_decision_instance(capsys):
    code, out = run_cli(
        ["dims", "--gen", "biclique", "--n", "4", "--k", "1", "--kind", "decision",
         "--tau", "0.2"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "dims"
    assert report["rsd_decision"]["value"] >= 1.0
    assert report["sd_decision"]["value"] <= report["rsd_decision"]["value"] + 1e-9
    assert "kbar1" in report and "rho" in report


def test_dims_enumerates_the_family_once_per_report(monkeypatch, capsys):
    from sqlab import games

    built = []
    enumerate_family = games.achievable_subsets

    def counting(*args, **kwargs):
        built.append(args[2])
        return enumerate_family(*args, **kwargs)

    monkeypatch.setattr(games, "achievable_subsets", counting)
    argv = ["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--kind", "decision",
            "--tau", "0.2"]
    outs = []
    for _ in range(2):
        code, out = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    # one enumeration per report, none carried over to the next report
    assert built == [0.2, 0.2]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags,walks", [
    # rsd_decision walks the reference family; sd_decision, kappa1_frac and
    # rsd_search's uniform-domain center (the same weights) read it, and
    # only the uniform-mixture center walks a second family
    (["--gen", "line", "--p", "3", "--tau", "0.2", "--beta", "0.9"], [(9, 0.2, "k1")] * 2),
    (["--gen", "biclique", "--n", "6", "--k", "2", "--tau", "0.3"], [(15, 0.3, "k1")] * 2),
    # the KV family and kappa1_frac's K1 family are two keys
    (["--gen", "biclique", "--n", "3", "--k", "1", "--kappa", "kv", "--tau", "0.2",
      "--beta", "0.9"], [(3, 0.2, "kv"), (3, 0.2, "k1")]),
])
def test_dims_report_enumerates_each_family_once(flags, walks, monkeypatch, capsys):
    """Each (center, tau, kappa) family of a report is enumerated once, and
    every field that reads it equals the same library call made outside a
    report."""
    from sqlab import (
        Measure,
        games,
        problems,
        rsd_decision,
        rsd_search,
        sd_decision,
        simple_lower_bound,
    )

    built = []
    enumerate_family = games.achievable_subsets

    def counting(dists, d0, tau, kappa="k1"):
        built.append((len(dists), tau, kappa))
        return enumerate_family(dists, d0, tau, kappa=kappa)

    monkeypatch.setattr(games, "achievable_subsets", counting)
    code, out = run_cli(["dims", *flags], capsys)
    assert code == 0
    assert built == walks
    monkeypatch.undo()

    report = json.loads(out)
    args = dict(zip(flags[::2], flags[1::2]))
    if args["--gen"] == "line":
        problem = problems.line_problem(int(args["--p"]))
    else:
        problem = problems.biclique(int(args["--n"]), int(args["--k"]))
    dists, d0, tau = list(problem.dists), problem.reference, float(args["--tau"])
    kappa = args.get("--kappa", "k1")
    rsd = rsd_decision(dists, d0, tau, kappa)
    expected = {
        "rsd_decision": {"value": rsd.value, "exactness": rsd.exactness},
        "sd_decision": {"value": sd_decision(dists, d0, tau, kappa).value},
    }
    if "--beta" in args:
        mu = Measure.uniform(problem.n_dists)
        expected["simple_lower_bound"] = simple_lower_bound(
            problem, mu, d0, tau, float(args["--beta"])
        ).value
    if kappa == "k1":
        search = rsd_search(problem, tau)
        expected["rsd_search"] = {"value": search.value, "exactness": search.exactness}
    assert {name: report[name] for name in expected} == sqio.to_jsonable(expected)


@pytest.mark.parametrize("kind,skipped", [
    ("search", ["rsd_search"]),
    ("verifiable", ["rsd_verifiable", "rsd_optimizing"]),
])
def test_dims_kv_skips_the_search_type_dimensions(kind, skipped, capsys):
    code, out = run_cli(
        ["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--kind", kind,
         "--tau", "0.2", "--kappa", "kv", "--eps", "0.2"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    for name in skipped:
        assert "no certified direction" in report[name]["skipped"]
    assert report["rsd_decision"]["exactness"] == "upper_bound"


def test_dims_requires_tau(capsys):
    code, _ = run_cli(["dims", "--gen", "biclique", "--n", "4", "--k", "2"], capsys)
    assert code == 1


def test_audit_line_family(capsys):
    code, out = run_cli(["audit", "--gen", "line", "--p", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"] == [{"name": "line_audit", "ok": True}]
    assert report["line_audit"]["worst_table_error"] <= 1e-10


def test_audit_relation_checks(capsys):
    code, out = run_cli(
        ["audit", "--gen", "biclique", "--n", "4", "--k", "1", "--kind", "decision"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["relation_audit"]["pass"] is True
    assert len(report["relation_audit"]["checks"]) == 3


# ---------------------------------------------------------------------------
# solve / stream
# ---------------------------------------------------------------------------


def test_solve_search_dispatch(capsys):
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
         "--trials", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "search"
    assert all(r["outcome"] == "solved" for r in report["results"])
    assert report["summary"]["success_rate"] == 1.0


def test_solve_decision_dispatch(capsys):
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--kind", "decision",
         "--tau", "0.2", "--delta", "0.1", "--trials", "4", "--seed", "2"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert {r["true"] for r in report["results"]} <= {"reference", "family"}
    assert report["summary"]["success_rate"] == 1.0


def test_solve_verifiable_dispatch(capsys):
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--kind", "verifiable",
         "--tau", "0.3", "--trials", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["theorem_violations"] == 0


def test_solve_rows_name_the_close_members_the_cover_leaves_unserved(capsys):
    """All three members of biclique(3,1) lie within tau of the uniform
    mixture on the square-root scale, so the proposal [1] is output with no
    query; each row says which close members it does not serve."""
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "3", "--k", "1", "--kappa", "kv",
         "--tau", "0.2", "--trials", "4", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["solution"] for r in rows] == [[1]] * 4
    assert all(r["queries"] == 0 and r["cover_incomplete"] == [1, 2] for r in rows)
    assert sum(r["correct"] for r in rows) == 1


def test_solve_rows_omit_cover_incomplete_when_the_cover_serves_all(capsys):
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
         "--trials", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert not any("cover_incomplete" in r for r in json.loads(out)["results"])


@pytest.mark.parametrize(
    "oracle",
    [
        ["--oracle", "onestat"],  # the default parameter tau/3 is no bit width
        ["--oracle", "onestat", "--param", "1"],
        ["--oracle", "vstat"],  # no solver takes a VSTAT session: not a choice
        ["--oracle", "vstat", "--param", "100"],
        ["--oracle", "vroot"],
    ],
)
def test_solve_rejects_an_oracle_the_solver_cannot_use_as_a_usage_error(oracle):
    """A K1 search takes a STAT session only; any other oracle, or a
    parameter its kind cannot take, is a usage error."""
    _assert_one_usage_error(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.2", *oracle]
    )


def _assert_one_usage_error(argv):
    """``sqlab argv`` exits 1 with one error line, no traceback and no
    output, run as a real process so that a traceback would show. Returns
    the error line."""
    proc = subprocess.run(
        [sys.executable, "-m", "sqlab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"sqlab {argv[0]}: error: ")
    assert proc.stdout == ""
    return errors[0]


_BICLIQUE = ["--gen", "biclique", "--n", "4", "--k", "2"]


def test_sampled_strategy_without_samples_is_a_usage_error():
    line = _assert_one_usage_error(["solve", *_BICLIQUE, "--tau", "0.2", "--strategy", "sampled"])
    assert line == "sqlab solve: error: --strategy sampled needs --samples"


@pytest.mark.parametrize(
    "argv,file",
    [
        (["stream", *_BICLIQUE, "--tau", "0.2", "--delta", "0"], None),
        (["stream", *_BICLIQUE, "--tau", "0.2", "--delta", "2"], None),
        (["stream", *_BICLIQUE, "--tau", "3", "--delta", "0.1"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--mode", "rand", "--delta", "0"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--mode", "rand"], None),
        (["solve", *_BICLIQUE, "--kind", "decision", "--tau", "0.2", "--delta", "1.5"], None),
        (["dims", *_BICLIQUE, "--tau", "-1"], None),
        (["dims", *_BICLIQUE, "--config", "{file}"], {"tau": 0}),  # checked after --config
        (["merge", "{file}"], [{"command": "solve", "results": []}]),  # not a JSON object
        (["dims", *_BICLIQUE, "--config", "{file}"], {"tau": [1]}),  # a type --tau cannot take
        (["solve", *_BICLIQUE, "--tau", "0.2", "--config", "{file}"], {"trials": 2.0, "seed": 1}),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--config", "{file}"], {"seed": True}),
        (["merge", "--config", "{file}"], {"inputs": "a.json"}),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--config", "{file}"], {"strategy": "edge"}),
        (["merge", "{file}"], {"command": "solve", "results": [1, 2]}),
        (["merge", "{file}"], {"command": "solve", "results": {"trial": 0}}),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--seed", "-1"], None),
        (["stream", *_BICLIQUE, "--tau", "0.2", "--delta", "0.1", "--seed", "-1"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--strategy", "sampled", "--samples", "-3"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--strategy", "sampled", "--samples", "0"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--trials", "-1", "--seed", "1"], None),
        (["stream", *_BICLIQUE, "--tau", "0.2", "--delta", "0.1", "--trials", "0"], None),
        (["solve", *_BICLIQUE, "--tau", "0.2", "--config", "{file}"], {"seed": -2}),
        (["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--tau", "0.2", "--alpha", "0"], None),
        (["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--tau", "0.2", "--alpha", "2"], None),
        (["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--tau", "0.2", "--beta", "7"], None),
        (["solve", *_BICLIQUE, "--kind", "verifiable", "--tau", "0.2", "--eps", "-0.5"], None),
        (["solve", *_BICLIQUE, "--kind", "verifiable", "--tau", "0.2", "--theta", "nan"], None),
        (["dims", *_BICLIQUE, "--kind", "verifiable", "--tau", "0.2", "--theta", "-0.1"], None),
    ],
    ids=["stream-delta-0", "stream-delta-2", "stream-tau-3", "solve-rand-delta-0", "solve-rand-no-delta",
         "solve-decision-delta-1.5", "dims-tau-neg", "dims-config-tau-0", "merge-array",
         "dims-config-tau-list", "solve-config-trials-float", "solve-config-seed-bool",
         "merge-config-inputs-string", "solve-config-strategy-not-a-choice",
         "merge-rows-not-objects", "merge-results-not-a-list", "solve-seed-neg",
         "stream-seed-neg", "solve-samples-neg", "solve-samples-0", "solve-trials-neg",
         "stream-trials-0", "solve-config-seed-neg", "dims-alpha-0", "dims-alpha-2", "dims-beta-7",
         "solve-eps-neg", "solve-theta-nan", "dims-theta-neg"],
)
def test_out_of_range_input_is_a_usage_error(argv, file, tmp_path):
    """--tau outside (0, 2], --alpha or --beta outside (0, 1], --theta
    outside [0, 1] (NaN included), --delta outside (0, 1) or missing in
    rand mode, a negative --eps or --seed, --trials or --samples below
    1, a --config value of a JSON type or outside the choices its flag can
    take, and a merge input that is no report are usage errors."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(file))
    _assert_one_usage_error([a.replace("{file}", str(path)) for a in argv])


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", *_BICLIQUE],
        ["dims", "--gen", "line", "--p", "3", "--tau", "0.2"],
        ["audit", "--gen", "line", "--p", "3"],
    ],
    ids=["gen", "dims", "audit"],
)
def test_a_csv_out_without_per_trial_rows_is_a_usage_error(argv, tmp_path):
    """gen, dims and audit write no per-trial rows, so a .csv --out would get
    an empty table (or JSON under a .csv name): refused before any work."""
    path = tmp_path / "report.csv"
    assert "per-trial rows" in _assert_one_usage_error([*argv, "--out", str(path)])
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--gen", "line", "--p", "4", "--tau", "0.2"],
        ["audit", "--gen", "line", "--p", "4"],
        ["audit", "--gen", "line", "--p", "1"],
        ["solve", "--gen", "line", "--p", "0", "--tau", "0.2"],
    ],
    ids=["solve-p-4", "audit-p-4", "audit-p-1", "solve-p-0"],
)
def test_a_line_family_over_no_prime_is_a_usage_error(argv):
    """The line family lives over GF(p): Z/4 would run as a field that it is
    not, and audit --p 4 would report a failed audit."""
    assert "needs a prime p" in _assert_one_usage_error(argv)


@pytest.mark.parametrize("command", ["audit", "solve"])
def test_a_line_family_past_its_guard_is_a_usage_error(command):
    argv = [command, "--gen", "line", "--p", "37"] + (["--tau", "0.2"] if command == "solve" else [])
    line = _assert_one_usage_error(argv)
    assert line == f"sqlab {command}: error: line family guarded at p <= 31"


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "--gen", "biclique", "--n", "2", "--k", "2", "--tau", "0.2", "--delta", "0.1"],
        ["solve", "--gen", "biclique", "--n", "1", "--k", "1", "--tau", "0.2"],
    ],
    ids=["stream-biclique-2-2", "solve-biclique-1-1"],
)
def test_a_family_whose_mixture_misses_a_point_is_a_usage_error(argv):
    """biclique(n, n) has one member, on the all-ones point alone, so the MW
    start has zero-mass points: one error line that names them."""
    assert "no mass on domain points '0" in _assert_one_usage_error(argv)


def test_solve_requires_seed_for_many_trials(capsys):
    code, _ = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
         "--trials", "2"],
        capsys,
    )
    assert code == 1


def test_solve_output_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        code, _ = run_cli(
            ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
             "--trials", "3", "--seed", "9", "--out", str(path)],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_solve_csv_output_uses_crlf(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _ = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
         "--trials", "2", "--seed", "4", "--out", str(path)],
        capsys,
    )
    assert code == 0
    raw = path.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().split("\r\n")
    assert lines[0].startswith("trial,true,outcome,solution,correct")
    assert len([ln for ln in lines if ln]) == 3  # header + 2 trials


def test_stream_dispatch(capsys):
    code, out = run_cli(
        ["stream", "--gen", "biclique", "--n", "6", "--k", "2", "--tau", "0.25",
         "--delta", "0.1", "--trials", "2", "--seed", "6"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["bound_broken"] is False
    assert all(r["within_bound"] for r in report["results"])


def test_stream_rejects_decision_instances(capsys):
    code, _ = run_cli(
        ["stream", "--gen", "biclique", "--n", "4", "--k", "2", "--kind", "decision",
         "--tau", "0.2", "--delta", "0.1", "--seed", "1"],
        capsys,
    )
    assert code == 1


# ---------------------------------------------------------------------------
# merge and exit-code conventions
# ---------------------------------------------------------------------------


def test_merge_combines_result_rows(tmp_path, capsys):
    parts = []
    for seed in (11, 12):
        path = tmp_path / f"part{seed}.json"
        run_cli(
            ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
             "--trials", "2", "--seed", str(seed), "--out", str(path)],
            capsys,
        )
        parts.append(str(path))
    code, out = run_cli(["merge", *parts], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["trials"] == 4
    assert report["source_commands"] == ["solve"]


def test_merge_surfaces_theorem_violations_with_exit_2(tmp_path, capsys):
    bad = {
        "command": "solve",
        "results": [
            {"trial": 0, "correct": False, "theorem_violation": True, "queries": 1},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(["merge", str(path)], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["summary"]["theorem_violations"] == 1


def test_merge_requires_inputs(capsys):
    code, _ = run_cli(["merge"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# --config
# ---------------------------------------------------------------------------


def _solve_with_config(tmp_path, capsys, conf, flags):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out = run_cli(
        ["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3",
         "--config", str(path), *flags],
        capsys,
    )
    assert code == 0
    return json.loads(out)


def test_config_fills_flags_not_given(tmp_path, capsys):
    report = _solve_with_config(tmp_path, capsys, {"trials": 3, "seed": 4}, [])
    assert report["trials"] == 3 and report["seed"] == 4
    assert len(report["results"]) == 3


def test_explicit_flags_beat_config_even_at_their_default(tmp_path, capsys):
    # --trials 1 is the flag's default value; it must still win over the file
    report = _solve_with_config(
        tmp_path, capsys, {"trials": 5, "seed": 4, "mode": "rand"},
        ["--trials", "1", "--seed", "2", "--mode", "det"],
    )
    assert report["trials"] == 1 and report["seed"] == 2
    assert len(report["results"]) == 1


def test_config_rejects_unknown_options(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"no_such_flag": 1}))
    code, _ = run_cli(["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--tau", "0.2",
                       "--config", str(path)], capsys)
    assert code == 1


def test_config_defaults_do_not_leak_into_the_next_call(tmp_path, capsys):
    report = _solve_with_config(tmp_path, capsys, {"trials": 3, "seed": 4}, [])
    assert report["trials"] == 3
    code, out = run_cli(["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3"],
                        capsys)
    assert code == 0
    plain = json.loads(out)
    assert plain["trials"] == 1 and plain["seed"] is None
    assert len(plain["results"]) == 1


def test_config_string_values_are_converted_by_the_flag_type(tmp_path, capsys):
    report = _solve_with_config(tmp_path, capsys, {"trials": "2", "seed": "4"}, [])
    assert report["trials"] == 2 and report["seed"] == 4


def test_parsers_are_built_once(tmp_path, capsys):
    """One parser per process; a --config call on it leaves nothing behind
    for the next call."""
    from sqlab import cli

    parser = cli._parsers()[0]
    report = _solve_with_config(tmp_path, capsys, {"trials": 3, "seed": 4, "delta": 0.05}, [])
    assert report["trials"] == 3 and report["delta"] == 0.05
    code, out = run_cli(["solve", "--gen", "biclique", "--n", "4", "--k", "2", "--tau", "0.3"],
                        capsys)
    assert code == 0
    plain = json.loads(out)
    assert plain["trials"] == 1 and plain["seed"] is None and plain["delta"] is None
    assert cli._parsers()[0] is parser


def test_merge_takes_its_inputs_from_config(tmp_path, capsys):
    """A config file can name merge's positional inputs; paths on the
    command line win over it."""
    for name, trials in (("a.json", 1), ("b.json", 2)):
        rows = [{"trial": t, "correct": True, "theorem_violation": False} for t in range(trials)]
        (tmp_path / name).write_text(json.dumps({"command": "solve", "results": rows}))
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"inputs": [str(tmp_path / "a.json")]}))
    code, out = run_cli(["merge", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["sources"] == [str(tmp_path / "a.json")]
    code, out = run_cli(["merge", "--config", str(path), str(tmp_path / "b.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["sources"] == [str(tmp_path / "b.json")] and report["summary"]["trials"] == 2


# ---------------------------------------------------------------------------
# help
# ---------------------------------------------------------------------------


def test_help_lists_every_command(capsys):
    code, out = run_cli(["--help"], capsys)
    assert code == 0
    assert "{gen,dims,audit,solve,stream,merge}" in out


@pytest.mark.parametrize("command", ["gen", "dims", "audit", "solve", "stream", "merge"])
def test_subcommand_help_lists_its_flags(command, capsys):
    code, out = run_cli([command, "--help"], capsys)
    assert code == 0
    assert "--config" in out and "--tau" in out
