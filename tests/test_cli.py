import csv
import json

import numpy as np
import pytest

from qxor.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    game_from_payload,
    game_to_payload,
    main,
)
from qxor.games import chsh, random_game, swap_game

FAST = ["--restarts", "3", "--sweeps", "50", "--messages", "1,2", "--ancilla", "1,2"]


def write_game(path, game):
    with open(path, "w") as fh:
        json.dump(game_to_payload(game), fh)


def test_payload_round_trip():
    g = random_game(2, 3, seed=17)
    back = game_from_payload(game_to_payload(g))
    assert np.abs(back.G - g.G).max() < 1e-15
    g2 = chsh()
    back2 = game_from_payload(game_to_payload(g2))
    assert back2.episodes is not None
    assert np.abs(back2.G - g2.G).max() < 1e-15


def test_analyze_gallery_swap(tmp_path):
    game_file = tmp_path / "swap2.json"
    out_file = tmp_path / "report.json"
    write_game(game_file, swap_game(2))
    code = main(["analyze", str(game_file), "--seed", "1", *FAST,
                 "--out", str(out_file)])
    assert code == EXIT_OK
    report = json.loads(out_file.read_text())
    row = report["rows"][0]
    assert row["beta_owq"] == pytest.approx(1.0, abs=1e-10)
    assert row["beta_product"]["lower"] == pytest.approx(0.5, abs=1e-6)
    assert row["pi1o"] == pytest.approx(1.0, abs=1e-10)
    assert row["violations"] == []


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == EXIT_PARSE
    payload = {"schema": "qxor/1", "n": 2, "m": 2, "G_re": [[0.0] * 4] * 4,
               "G_im": [[0.0] * 4] * 4, "mystery": 1}
    bad.write_text(json.dumps(payload))
    assert main(["analyze", str(bad)]) == EXIT_PARSE
    assert "mystery" in capsys.readouterr().err


def test_analyze_non_hermitian_payload(tmp_path, capsys):
    g = np.zeros((4, 4))
    g_im = np.zeros((4, 4))
    g[0, 1] = 0.5  # no conjugate partner
    payload = {"schema": "qxor/1", "n": 2, "m": 2,
               "G_re": g.tolist(), "G_im": g_im.tolist()}
    bad = tmp_path / "nonherm.json"
    bad.write_text(json.dumps(payload))
    assert main(["analyze", str(bad)]) == EXIT_VALIDATION
    assert "Hermitian" in capsys.readouterr().err


def test_analyze_deterministic_output(tmp_path):
    game_file = tmp_path / "game.json"
    write_game(game_file, random_game(2, 2, seed=23))
    outs = []
    for i in (0, 1):
        out = tmp_path / f"rep{i}.json"
        assert main(["analyze", str(game_file), "--seed", "5", *FAST,
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_hierarchy_zero_count_rejected(capsys):
    assert main(["hierarchy", "--count", "0"]) == EXIT_VALIDATION


def test_hierarchy_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["hierarchy", "--count", "2", "--n", "2", "--m", "2",
                 "--seed", "3", *FAST, "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["game_id"] == "random-0000"
    assert float(rows[0]["beta_owq"]) == pytest.approx(1.0, abs=1e-10)
    assert "time_total_s" in rows[0]
    assert rows[0]["violations"] == ""


def test_gallery_emit_and_reload(tmp_path):
    out = tmp_path / "chsh.json"
    assert main(["gallery", "chsh", "--out", str(out)]) == EXIT_OK
    game = game_from_payload(json.loads(out.read_text()))
    assert game.n == game.m == 2
    out2 = tmp_path / "diag.json"
    assert main(["gallery", "diagonal", "--coeffs", "0.25,0.25;0.25,-0.25",
                 "--out", str(out2)]) == EXIT_OK
    game2 = game_from_payload(json.loads(out2.read_text()))
    assert np.abs(game2.G - chsh().G).max() < 1e-15
    assert main(["gallery", "hadamard", "--n", "3"]) == EXIT_VALIDATION


def test_norms_subcommand(tmp_path):
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    payload = {
        "schema": "qxor-tuple/1",
        "entries_re": [m.tolist() for m in mats],
        "entries_im": [(0 * m).tolist() for m in mats],
    }
    f = tmp_path / "tuple.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "norms.json"
    assert main(["norms", str(f), "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())
    from qxor.tuples import col_norm, rc_norm, row_norm

    t = np.stack(mats).astype(complex)
    assert res["row"] == pytest.approx(row_norm(t), abs=1e-12)
    assert res["col"] == pytest.approx(col_norm(t), abs=1e-12)
    assert res["rc"] == pytest.approx(rc_norm(t), abs=1e-12)
    assert res["weight"] == pytest.approx(res["rplus2c"] ** 2, rel=1e-12)


def test_factor_subcommand(tmp_path):
    from qxor.games import mab_tensor

    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    kernel = mab_tensor(e11, e11)
    # tensor coefficients across the (left | right) trace-class cut
    g4 = kernel.reshape(2, 2, 2, 2)
    coeff = g4.transpose(0, 2, 1, 3).reshape(4, 4)
    payload = {
        "schema": "qxor-tensor/1",
        "X": {"kind": "dual", "dim": 2},
        "Y": {"kind": "dual", "dim": 2},
        "coeff_re": coeff.real.tolist(),
        "coeff_im": coeff.imag.tolist(),
    }
    f = tmp_path / "tensor.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "factor.json"
    assert main(["factor", str(f), *FAST, "--levels", "1,2",
                 "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())
    assert res["gamma_upper"] > 0
    iv = res["factorization_interval"]
    assert iv["lower"] <= iv["upper"] + 1e-9


def test_analyze_bad_episodes_exit_parse(tmp_path, capsys):
    payload = game_to_payload(chsh())
    bad = tmp_path / "episodes.json"
    for episodes in (
        [{k: v for k, v in payload["episodes"][0].items() if k != "rho_im"}],
        [{k: v for k, v in payload["episodes"][0].items() if k not in ("p", "c")}],
        [3],
        "none",
    ):
        bad.write_text(json.dumps({**payload, "episodes": episodes}))
        assert main(["analyze", str(bad), *FAST]) == EXIT_PARSE
        assert "parse error:" in capsys.readouterr().err


def test_norms_mismatched_entries_exit_parse(tmp_path, capsys):
    m = np.eye(2).tolist()
    for re, im in (([m, m], [m]), ([], []), ([m, [[1.0]]], [m, [[0.0]]])):
        f = tmp_path / "tuple.json"
        f.write_text(json.dumps({"schema": "qxor-tuple/1", "entries_re": re, "entries_im": im}))
        assert main(["norms", str(f)]) == EXIT_PARSE
        assert "parse error:" in capsys.readouterr().err
    f.write_text("[1, 2]")
    assert main(["norms", str(f)]) == EXIT_PARSE


def test_selftest_list(capsys):
    assert main(["selftest", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "C1" in out and "C10" in out
