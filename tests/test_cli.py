"""CLI contract: parsing, canonical JSON, exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qergodic as qg
from qergodic import limits, paths
from qergodic import model as core
from qergodic.cli import ChainDocument, emit_json, main, parse_document
from qergodic.errors import NoConvergence, ParseError

from conftest import CHAINS, count_calls

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import chains  # noqa: E402


TWO_STATE = {"Q": [[0.3, 0.0], [0.5, 0.5]], "pi": [0.5, 0.5]}
UNCERTIFIED = {"Q": [[0.7, 0, 0], [0.2, 0.4, 0.1], [0.05, 0.1, 0.4]], "pi": [0, 0.8, 0.2]}
# leaks 0.2-0.3 % a step, so about half its trajectories survive 300 steps
MIXING = {"Q": [[0.5, 0.497, 0], [0.3, 0.4, 0.298], [0.2, 0.3, 0.498]], "pi": [0, 0.8, 0.2]}
# absorbed within two steps: its dominant root is 0
NILPOTENT = {"Q": [[0, 0], [0.74, 0]], "pi": [0.479, 0.521]}
TRIANGLE_FULL = {"Q": [[0.5, 0, 0], [0.1, 0.5, 0], [0.2, 0.1, 0.5]], "pi": [1 / 3, 1 / 3, 1 / 3]}


@pytest.fixture
def doc_file(tmp_path):
    def write(payload, name="chain.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


# --- parsing -------------------------------------------------------------


def test_parse_json_document(doc_file):
    doc = parse_document(doc_file(TWO_STATE))
    assert doc.Q == [[0.3, 0.0], [0.5, 0.5]]
    assert doc.pi == [0.5, 0.5]
    assert doc.options["rho_eq_tol"] == 1e-9


def test_parse_rejects_unknown_keys(doc_file):
    with pytest.raises(ParseError):
        parse_document(doc_file({**TWO_STATE, "extra": 1}))
    with pytest.raises(ParseError):
        parse_document(doc_file({**TWO_STATE, "options": {"bogus": 1}}))
    with pytest.raises(ParseError):
        parse_document(doc_file({**TWO_STATE, "labels": ["a", "b"]}))
    with pytest.raises(ParseError):
        parse_document(doc_file({**TWO_STATE, "options": {"exact_scalar_compare": True}}))


def test_parse_rejects_ragged_rows(doc_file):
    with pytest.raises(ParseError):
        parse_document(doc_file({"Q": [[0.3, 0.0], [0.5]], "pi": [0.5, 0.5]}))


def test_parse_defaults_pi_to_uniform(doc_file, capsys):
    doc = parse_document(doc_file({"Q": [[0.3, 0.0], [0.5, 0.5]]}))
    assert doc.pi == [0.5, 0.5]
    assert "uniform" in capsys.readouterr().err


def test_parse_csv(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("0.3, 0.0\n0.5, 0.5\n0.5, 0.5\n")
    doc = parse_document(str(path))
    assert doc.Q == [[0.3, 0.0], [0.5, 0.5]]
    assert doc.pi == [0.5, 0.5]


def test_parse_csv_bad_token(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("0.3, oops\n0.5, 0.5\n")
    with pytest.raises(ParseError):
        parse_document(str(path))


# --- canonical JSON ------------------------------------------------------


def test_emit_json_sorted_and_stable():
    assert emit_json({"b": 1, "a": [1.5, True, None]}) == '{"a":[1.5,true,null],"b":1}'


def test_emit_json_round_trip_fixed_point():
    payload = {"x": 1 / 3, "y": [0.1, 2.0, 123456789.123456], "z": {"k": 5e-324}}
    once = emit_json(payload)
    again = emit_json(json.loads(once))
    assert once == again


def test_emit_json_handles_numpy():
    out = emit_json({"v": np.array([0.25, 0.75]), "n": np.int64(3)})
    assert out == '{"n":3,"v":[0.25,0.75]}'


# --- commands and exit codes ---------------------------------------------


def test_analyze_success(doc_file, capsys):
    code = main(["analyze", doc_file(TWO_STATE), "--format", "json"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "qergodic/1"
    assert data["result"]["state_measure_input_order"] == [0.0, 1.0]
    assert emit_json(json.loads(out)) == out


def test_analyze_uncertified_exits_2_with_fallback(doc_file, capsys):
    code = main(["analyze", doc_file(UNCERTIFIED), "--format", "json", "--n", "400", "--trials", "2000"])
    out = capsys.readouterr().out
    assert code == 2
    data = json.loads(out)
    assert data["assumptions"]["certified"] is False
    assert "banner" in data["result"]
    assert "finite_horizon" in data["result"]


def test_analyze_keeps_closed_form_when_qsd_fails(doc_file, capsys, monkeypatch):
    # any NumericalError of the QSD
    def fail(Q):
        raise NoConvergence("Noda iteration did not reach residual 1e-13 in 50 solves")

    monkeypatch.setattr(limits, "quasi_stationary_distribution", fail)
    code = main(["analyze", doc_file(TRIANGLE_FULL), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["quasi_stationary"] == {"error": "Noda iteration did not reach residual 1e-13 in 50 solves"}
    assert data["assumptions"]["certified"] is True
    assert "state_measure_input_order" in data["result"]


def test_analyze_reports_the_qsd_error_on_a_tied_top_root(doc_file, capsys):
    # three blocks share the root 0.5, so the QSD is not unique
    code = main(["analyze", doc_file(TRIANGLE_FULL), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["quasi_stationary"] == {
        "error": "3 blocks share the top root 0.5, so the quasi-stationary distribution is not unique"
    }
    assert data["assumptions"]["certified"] is True
    assert "state_measure_input_order" in data["result"]


# exit code and bytes; re-recorded when the Perron data moved from power
# iteration to Noda's iteration, every changed number closer to its exact value
ANALYZE_BYTES = {
    "matrix_block": (
        0,
        '{"assumptions":{"certified":true,"pi_restriction":true,"scalar_ok":true,"violations":[],"witness_pat'
        'h":[1]},"block_sizes":[2,1],"blocks":[{"period":1,"primitive":true,"rho":0.24142135623730954,"scalar'
        '":false,"sub_modulus":0.04142135623730997,"u":[1.2071067811865475,0.49999999999999989],"v":[0.707106'
        '78118654757,0.29289321881345248]},{"period":1,"primitive":true,"rho":0.10000000000000001,"scalar":tr'
        'ue,"sub_modulus":0,"u":[1],"v":[1]}],"h_max":1,"paths":[{"alpha":1.7071067811865475,"h_minus":0,"h_p'
        'lus":1,"maximal":true,"pi_mass":0.25,"rho":0.24142135623730954,"theta":[1]},{"alpha":1,"h_minus":0,"'
        'h_plus":1,"maximal":false,"pi_mass":0.5,"rho":0.10000000000000001,"theta":[2]},{"alpha":0.2207106781'
        '1865477,"h_minus":1,"h_plus":1,"maximal":true,"pi_mass":0.5,"rho":0.24142135623730954,"theta":[2,1]}'
        '],"permutation":[1,2,3],"quasi_stationary":[0.70710678118654746,0.29289321881345243,0],"result":{"bl'
        'ock_measure":[1,0],"h_max":1,"rho_max":0.24142135623730954,"state_measure_input_order":[0.8535533905'
        '9327373,0.14644660940672621,0],"state_measure_normal_form":[0.85355339059327373,0.14644660940672621,'
        '0]},"rho_max":0.24142135623730954,"schema":"qergodic/1"}\n'
    ),
    "uncertified": (
        2,
        '{"assumptions":{"certified":false,"pi_restriction":true,"scalar_ok":false,"violations":["block 2 has'
        ' root 0.5 below the dominant root but is not scalar (size 2)"],"witness_path":[2,1]},"block_sizes":['
        '1,2],"blocks":[{"period":1,"primitive":true,"rho":0.69999999999999996,"scalar":true,"sub_modulus":0,'
        '"u":[1],"v":[1]},{"period":1,"primitive":true,"rho":0.5,"scalar":false,"sub_modulus":0.3000000000000'
        '0049,"u":[1,1],"v":[0.5,0.5]}],"h_max":1,"paths":[{"alpha":1,"h_minus":0,"h_plus":1,"maximal":false,'
        '"pi_mass":0,"rho":0.69999999999999996,"theta":[1]},{"alpha":2,"h_minus":0,"h_plus":1,"maximal":false'
        ',"pi_mass":0.5,"rho":0.5,"theta":[2]},{"alpha":0.25,"h_minus":1,"h_plus":1,"maximal":true,"pi_mass":'
        '0.5,"rho":0.69999999999999996,"theta":[2,1]}],"permutation":[1,2,3],"quasi_stationary":[1,0,0],"resu'
        'lt":{"banner":"no closed form certified; finite-horizon and Monte Carlo estimates follow","finite_ho'
        'rizon":{"n":400,"state_occupation":[0.99193752905870924,0.0062502641700832714,0.0018122067712075744]'
        '},"monte_carlo":{"error":"none of 500 trajectories survived past n=200"}},"rho_max":0.69999999999999'
        '996,"schema":"qergodic/1"}\n'
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_BYTES))
def test_analyze_bytes_fixed_across_versions(name, doc_file, capsys):
    code, expected = ANALYZE_BYTES[name]
    Q, pi = CHAINS[name]
    path = doc_file({"Q": Q, "pi": pi})
    assert main(["analyze", path, "--format", "json", "--n", "400", "--trials", "500", "--seed", "3"]) == code
    assert capsys.readouterr().out == expected


def test_analyze_matrix_block_exact_root_and_qsd_zeros(doc_file, capsys):
    Q, pi = CHAINS["matrix_block"]
    assert main(["analyze", doc_file({"Q": Q, "pi": pi}), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    exact = (1 + math.sqrt(2)) / 10
    assert abs(data["blocks"][0]["rho"] - exact) <= 2 * math.ulp(exact)
    # state 3 feeds the top block and is not reached from it
    assert data["quasi_stationary"][2] == 0.0


# SHA-256 of `paths --format json` stdout, re-recorded when the Perron data
# moved from power iteration to Noda's iteration (every changed alpha,
# pi_mass and rho moved closer to its 40-digit value); 8,916 paths between
# them
PATHS_SHA256 = {
    0: "47d3836f814e37f450ae0b7df7201fdb5f1084facabbc85c6e572206202e090b",
    29: "8dc8a9250aeeab3a519f6c67e19b272b869e3a6c8faf207f42baa633908cd824",
}


@pytest.mark.parametrize("index", sorted(PATHS_SHA256))
def test_paths_bytes_fixed_on_dag_chains(index, doc_file, capsys):
    c = chains.dag_chain(7, index)
    assert main(["paths", doc_file({"Q": c.Q.tolist(), "pi": c.pi.tolist()}), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PATHS_SHA256[index]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_command_analyzes_the_chain_once(command, doc_file, capsys, monkeypatch):
    calls = count_calls(monkeypatch, paths.enumerate_paths)
    assert main([command, doc_file(TWO_STATE), "--format", "json"]) == 0
    assert len(calls) == 1


def test_qed_command(doc_file, capsys):
    code = main(["qed", doc_file({**TWO_STATE, "observable": [3.0, 7.0]}), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["observable_limit"] - 7.0) <= 1e-9


def test_qed_nilpotent_chain_shows_its_violation(doc_file, capsys):
    code = main(["qed", doc_file(NILPOTENT), "--format", "json", "--trials", "100"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["violations"][0].startswith("the dominant root is 0")
    assert data["finite_horizon"] == {"error": "pi Q^2 is exactly zero"}
    assert "error" in data["monte_carlo"]


def test_qsd_command(doc_file, capsys):
    code = main(["qsd", doc_file(TWO_STATE), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["quasi_stationary"][0] - 5 / 7) <= 1e-9


def test_paths_command(doc_file, capsys):
    code = main(["paths", doc_file(TWO_STATE), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(tuple(p["theta"]) for p in data["paths"]) == [(1,), (2,), (2, 1)]


def test_paths_command_skips_qsd(doc_file, capsys, monkeypatch):
    path = doc_file(TWO_STATE)
    assert main(["analyze", path, "--format", "json"]) == 0
    full = json.loads(capsys.readouterr().out)

    def fail(Q):
        raise AssertionError("paths must not compute the QSD")

    monkeypatch.setattr(limits, "quasi_stationary_distribution", fail)
    assert main(["paths", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {k: full[k] for k in ("schema", "permutation", "block_sizes", "paths", "h_max", "rho_max")}


def test_finite_n_zero_prints_pi(doc_file, capsys):
    code = main(["finite-n", doc_file(TWO_STATE), "--n", "0", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["state_occupation"] == [0.5, 0.5]


def test_simulate_deterministic_bytes(doc_file, capsys):
    argv = ["simulate", doc_file(TWO_STATE), "--n", "2", "--trials", "500", "--seed", "11", "--format", "json"]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_simulate_bytes_fixed_across_versions(doc_file, capsys):
    # bytes recorded before trajectories were batched; n + 1 > 256 spans two
    # of the 256-uniform chunks a single trajectory draws
    argv = ["simulate", doc_file(MIXING), "--n", "300", "--trials", "3000", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
            '{"n":300,"schema":"qergodic/1","seed":5,'
            '"stderr":[0.00093232005749823484,0.00071032393655437215,0.00090877970367360384],'
            '"trials":3000,"trials_surviving":1513,'
            '"values":[0.34449389894447091,0.41086003254189968,0.24464606851363538]}\n'
    )


def test_seed_env_default(doc_file, capsys, monkeypatch):
    monkeypatch.setenv("QERGODIC_SEED", "11")
    from qergodic import cli

    argv = ["simulate", doc_file(TWO_STATE), "--n", "2", "--trials", "500", "--format", "json"]
    code = cli.main(argv)
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 11


def test_seed_env_is_read_at_every_call(doc_file, capsys, monkeypatch):
    from qergodic import cli

    argv = ["simulate", doc_file(TWO_STATE), "--n", "2", "--trials", "500", "--format", "json"]
    seeds = []
    for value in ("11", "12", None):
        if value is None:
            monkeypatch.delenv("QERGODIC_SEED")
        else:
            monkeypatch.setenv("QERGODIC_SEED", value)
        assert cli.main(argv) == 0
        seeds.append(json.loads(capsys.readouterr().out)["seed"])
    assert seeds == [11, 12, 0]


def test_main_builds_its_parser_once(doc_file):
    from qergodic import cli

    cli._parser.cache_clear()
    path = doc_file(TWO_STATE)
    for argv in (["qsd", path], ["simulate", path, "--n", "2", "--trials", "500"], ["paths", path]):
        assert cli.main(argv) == 0
    assert cli._parser.cache_info().misses == 1


# leaks 0.3 a step from either state: one of 10 trajectories survives 5 steps at seed 3
ONE_SURVIVOR = {"Q": [[0.5, 0.2], [0.1, 0.6]], "pi": [1, 0]}


def test_simulate_one_survivor_prints_null_stderr(doc_file, capsys):
    argv = ["simulate", doc_file(ONE_SURVIVOR), "--n", "5", "--trials", "10", "--seed", "3", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trials_surviving"] == 1
    assert data["stderr"] == [None, None]


def test_analyze_fallback_one_survivor_prints_null_stderr(doc_file, capsys):
    argv = ["analyze", doc_file(UNCERTIFIED), "--n", "5", "--trials", "10", "--seed", "0", "--format", "json"]
    assert main(argv) == 2
    mc = json.loads(capsys.readouterr().out)["result"]["monte_carlo"]
    assert mc["trials_surviving"] == 1
    assert mc["stderr"] == [None, None, None]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--seed", "-1"),
        ("simulate", "--trials", "0"),
        ("finite-n", "--n", "-1"),
        ("simulate", "--n", "-3"),
        ("analyze", "--seed", "-1"),
        ("verify", "--n-max", "3"),
    ],
)
def test_out_of_range_flags_are_usage_errors(command, flag, value, doc_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, doc_file(UNCERTIFIED), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >=" in capsys.readouterr().err


def test_negative_seed_from_the_environment_is_a_usage_error(doc_file, capsys, monkeypatch):
    monkeypatch.setenv("QERGODIC_SEED", "-1")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", doc_file(TWO_STATE), "--n", "2", "--trials", "5"])
    assert exc.value.code == 2
    assert "argument --seed: must be an integer >= 0" in capsys.readouterr().err


def test_verify_trend_checks_three_horizons_above_the_state_cap(doc_file, capsys):
    c = chains.dense_chain(7, 0)
    path = doc_file({"Q": c.Q.tolist(), "pi": c.pi.tolist()})
    assert c.Q.shape[0] > core.EXTRAPOLATION_MAX_STATES
    for n_max in ("-5", "1", "3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, "--n-max", n_max, "--format", "json"])
        assert exc.value.code == 2
    capsys.readouterr()
    main(["verify", path, "--n-max", "4", "--format", "json"])
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["check"] == "finite_horizon_trend"
    assert re.findall(r"n=(\d+):", check["detail"]) == ["1", "2", "4"]


def test_python_dash_m_runs_the_cli(doc_file, capsys):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["qsd", doc_file(TWO_STATE), "--format", "json"]
    done = subprocess.run([sys.executable, "-m", "qergodic", *argv], capture_output=True, text=True, env=env, cwd=root, timeout=60)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_verify_command(doc_file, capsys):
    code = main(["verify", doc_file(TWO_STATE), "--n-max", "200", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["pass"] is True
    assert all(c["pass"] for c in data["checks"])


@pytest.mark.parametrize("name", ["two_state", "matrix_block", "periodic", "dag/2"])
def test_verify_fails_a_limit_moved_by_1e_6(name, doc_file, capsys, monkeypatch):
    true_limit = limits.limit_measure

    def moved(analysis):
        result = true_limit(analysis)
        state = result.state_measure_input.copy()
        state[0] += 1e-6
        return dataclasses.replace(result, state_measure_input=state)

    monkeypatch.setattr(limits, "limit_measure", moved)
    if name.startswith("dag/"):
        c = chains.dag_chain(7, int(name[4:]))
        Q, pi = c.Q.tolist(), c.pi.tolist()
    else:
        Q, pi = CHAINS[name]
    assert main(["verify", doc_file({"Q": Q, "pi": pi}), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False
    assert [c["check"] for c in data["checks"]] == ["limit_vs_extrapolated_profile"]


@pytest.mark.parametrize("payload", [UNCERTIFIED, NILPOTENT], ids=["uncertified", "nilpotent"])
def test_verify_uncertified_exits_2_with_violations(payload, doc_file, capsys):
    assert main(["verify", doc_file(payload), "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["violations"] and "checks" not in data
    analysis = limits.analyze(qg.validate(payload["Q"], payload["pi"]))
    assert data["violations"] == list(analysis.report.violations)


# pi_below_top: pi never reaches the root 0.5, which at horizon 2^16 would
# scale every profile entry below 0.6^65536
CERTIFIED = {name: CHAINS[name] for name in CHAINS if name != "uncertified"}
CERTIFIED["pi_below_top"] = (TWO_STATE["Q"], [1.0, 0.0])


@pytest.mark.parametrize("name", sorted(CERTIFIED) + ["dag/0", "dag/1", "dag/2"])
def test_verify_passes_certified_chains(name, doc_file, capsys):
    if name.startswith("dag/"):
        c = chains.dag_chain(7, int(name[4:]))
        Q, pi = c.Q.tolist(), c.pi.tolist()
    else:
        Q, pi = CERTIFIED[name]
    cpu = time.process_time()
    code = main(["verify", doc_file({"Q": Q, "pi": pi}), "--format", "json"])
    cpu = time.process_time() - cpu
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["pass"] is True
    assert [c["check"] for c in data["checks"]] == ["limit_vs_extrapolated_profile"]
    assert cpu < 1.0


def test_verify_trends_above_the_state_cap(doc_file, capsys, monkeypatch):
    monkeypatch.setattr(core, "EXTRAPOLATION_MAX_STATES", 1)
    assert main(["verify", doc_file(TWO_STATE), "--format", "json", "--n-max", "200"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in data["checks"]] == ["finite_horizon_trend"]


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"Q": [[1.5, 0.0], [0.0, 0.5]], "pi": [0.5, 0.5]}')
    assert main(["analyze", str(path)]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    path.write_text('{"Q": [[0.5, 0.1], [0.1, 0.5]], "pi": [NaN, 0.5]}')
    assert main(["analyze", str(path)]) == 1


# each flag group: its flags, and the commands that do not read them
UNREAD_FLAGS = {
    "horizon": ([["--n", "5"], ["--n"]], ["qsd", "paths", "verify"]),
    "sampling": ([["--trials", "5"], ["--seed", "1"]], ["qsd", "paths", "finite-n", "verify"]),
    "analysis": ([["--rho-tol", "3"], ["--no-pi-restriction"]], ["qsd", "finite-n", "simulate"]),
    "trend": ([["--n-max", "5"]], ["analyze", "qed", "qsd", "paths", "finite-n", "simulate"]),
}


@pytest.mark.parametrize("group", sorted(UNREAD_FLAGS))
def test_commands_reject_flags_they_do_not_read(group, doc_file, capsys):
    flags, commands = UNREAD_FLAGS[group]
    path = doc_file(TWO_STATE)
    for command in commands:
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, path, *flag])
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err


def test_qsd_rejects_analysis_and_trend_flags(doc_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qsd", doc_file(TWO_STATE), "--n-max", "5", "--rho-tol", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-max 5 --rho-tol 3" in capsys.readouterr().err


def test_no_pi_restriction_flag(doc_file, capsys):
    # with mass only on the low-root block, the unrestricted family has no
    # reachable dominant path: no witness, exit 2
    payload = {"Q": TWO_STATE["Q"], "pi": [1.0, 0.0]}
    assert main(["qed", doc_file(payload), "--format", "json", "--trials", "100"]) == 0
    capsys.readouterr()
    code = main(["qed", doc_file(payload), "--format", "json", "--no-pi-restriction", "--trials", "100"])
    capsys.readouterr()
    assert code == 2
