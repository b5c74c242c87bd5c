"""CLI contract: parsing, canonical JSON, exit codes, determinism."""

import json

import numpy as np
import pytest

from qergodic import limits
from qergodic.cli import ChainDocument, emit_json, main, parse_document
from qergodic.errors import NoConvergence, ParseError


TWO_STATE = {"Q": [[0.3, 0.0], [0.5, 0.5]], "pi": [0.5, 0.5]}
UNCERTIFIED = {"Q": [[0.7, 0, 0], [0.2, 0.4, 0.1], [0.05, 0.1, 0.4]], "pi": [0, 0.8, 0.2]}
# leaks 0.2-0.3 % a step, so about half its trajectories survive 300 steps
MIXING = {"Q": [[0.5, 0.497, 0], [0.3, 0.4, 0.298], [0.2, 0.3, 0.498]], "pi": [0, 0.8, 0.2]}
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
    # power iteration fails this way on triangle_full, after about 16 s
    def fail(Q):
        raise NoConvergence("power iteration did not reach tol 1e-14")

    monkeypatch.setattr(limits, "quasi_stationary_distribution", fail)
    code = main(["analyze", doc_file(TRIANGLE_FULL), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["quasi_stationary"] == {"error": "power iteration did not reach tol 1e-14"}
    assert data["assumptions"]["certified"] is True
    assert "state_measure_input_order" in data["result"]


def test_qed_command(doc_file, capsys):
    code = main(["qed", doc_file({**TWO_STATE, "observable": [3.0, 7.0]}), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["observable_limit"] - 7.0) <= 1e-9


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


def test_verify_command(doc_file, capsys):
    code = main(["verify", doc_file(TWO_STATE), "--n-max", "200", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["pass"] is True
    assert all(c["pass"] for c in data["checks"])


def test_verify_uncertified_flags_divergence(doc_file, capsys):
    code = main(["verify", doc_file(UNCERTIFIED), "--n-max", "400", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {c["check"]: c["pass"] for c in data["checks"]}
    assert names["uncertified_divergence_flagged"] is True


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"Q": [[1.5, 0.0], [0.0, 0.5]], "pi": [0.5, 0.5]}')
    assert main(["analyze", str(path)]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1


def test_no_pi_restriction_flag(doc_file, capsys):
    # with mass only on the low-root block, the unrestricted family has no
    # reachable dominant path: no witness, exit 2
    payload = {"Q": TWO_STATE["Q"], "pi": [1.0, 0.0]}
    assert main(["qed", doc_file(payload), "--format", "json", "--trials", "100"]) == 0
    capsys.readouterr()
    code = main(["qed", doc_file(payload), "--format", "json", "--no-pi-restriction", "--trials", "100"])
    capsys.readouterr()
    assert code == 2
