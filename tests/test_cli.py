import copy
import csv
import dataclasses
import io
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import CHSH_EPISODES, CHSH_TENSOR, chsh_episodes_payload
from qxor.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_QUALITY,
    EXIT_SELFTEST_FAIL,
    EXIT_VALIDATION,
    MAX_REGISTER_DIM,
    SchemaError,
    _parse_schedule,
    game_from_payload,
    game_to_payload,
    main,
)
from qxor.games import chsh, random_game, swap_game

FAST = ["--restarts", "3", "--sweeps", "50", "--messages", "1,2", "--ancilla", "1,2"]


def write_game(path, game):
    with open(path, "w") as fh:
        json.dump(game_to_payload(game), fh)


def tensor_payload(coeff, x=("dual", 1), y=("dual", 1)):
    coeff = np.asarray(coeff, dtype=complex)
    return {
        "schema": "qxor-tensor/1",
        "X": {"kind": x[0], "dim": x[1]},
        "Y": {"kind": y[0], "dim": y[1]},
        "coeff_re": coeff.real.tolist(),
        "coeff_im": coeff.imag.tolist(),
    }


def test_payload_round_trip():
    g = random_game(2, 3, seed=17)
    back = game_from_payload(game_to_payload(g))
    assert np.abs(back.G - g.G).max() < 1e-15
    g2 = chsh()
    back2 = game_from_payload(game_to_payload(g2))
    assert np.abs(back2.G - g2.G).max() < 1e-15
    # a game is its operator: no episode list is written
    assert "episodes" not in game_to_payload(g2)


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
    bad.write_bytes(b"\xff\xfe{")
    assert main(["analyze", str(bad)]) == EXIT_PARSE
    assert main(["analyze", str(tmp_path / "missing.json")]) == EXIT_PARSE


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


def test_hierarchy_csv_without_out_goes_to_stdout(capsys):
    code = main(["hierarchy", "--count", "1", "--n", "2", "--m", "2",
                 "--seed", "3", *FAST, "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 and rows[0]["game_id"] == "random-0000"


def test_a_flagged_row_exits_quality_and_still_writes_the_report(tmp_path, monkeypatch, capsys):
    from qxor import cli

    analyze_game = cli.analyze_game

    def flagged(*args, **kwargs):
        return dataclasses.replace(analyze_game(*args, **kwargs),
                                   violations=("owc_not_monotone",))

    monkeypatch.setattr(cli, "analyze_game", flagged)
    out = tmp_path / "report.json"
    assert main(["hierarchy", "--count", "1", *FAST, "--out", str(out)]) == EXIT_QUALITY
    assert capsys.readouterr().err.strip() == (
        "solver quality below minimum: random-0000:owc_not_monotone")
    report = json.loads(out.read_text())
    assert report["violations"] == ["random-0000:owc_not_monotone"]
    assert report["rows"][0]["violations"] == ["owc_not_monotone"]


def out_argv(tmp_path, command):
    """A small valid run of each subcommand that takes ``--out``."""
    if command in ("analyze", "hierarchy", "factor"):
        return budget_argv(tmp_path, command)
    if command == "hierarchy-csv":
        return [*budget_argv(tmp_path, "hierarchy"), "--format", "csv"]
    if command == "gallery":
        return ["gallery", "chsh"]
    f = tmp_path / "tuple.json"
    f.write_text(json.dumps({"schema": "qxor-tuple/1", "entries_re": [[[1.0]]],
                             "entries_im": [[[0.0]]]}))
    return ["norms", str(f)]


OUT_COMMANDS = ["analyze", "hierarchy", "hierarchy-csv", "gallery", "norms", "factor"]


@pytest.mark.parametrize("where", ["directory", "missing-parent", "file-parent"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_an_out_path_that_is_no_file_exits_parse_before_any_solve(
        tmp_path, capsys, monkeypatch, command, where):
    from qxor import cli

    def solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("analyze_game", "rplus2c_split", "gamma_rc_upper"):
        monkeypatch.setattr(cli, name, solver)
    argv = out_argv(tmp_path, command)
    (tmp_path / "file").write_text("")
    out = {"directory": tmp_path, "missing-parent": tmp_path / "no" / "report.json",
           "file-parent": tmp_path / "file" / "report.json"}[where]
    assert main([*argv, "--out", str(out)]) == EXIT_PARSE
    out_text, err = capsys.readouterr()
    assert err.startswith(f"parse error: --out {out}") and err.count("\n") == 1
    assert out_text == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["hierarchy", "hierarchy-csv", "gallery"])
def test_a_failed_write_exits_parse_naming_the_path(tmp_path, capsys, command):
    # /dev/full takes the open and fails the write
    assert main([*out_argv(tmp_path, command), "--out", "/dev/full"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "parse error: cannot write /dev/full: No space left on device\n")


def test_analyze_kernel_of_the_wrong_shape_exits_parse(tmp_path, capsys):
    f = tmp_path / "game.json"
    f.write_text(json.dumps({"schema": "qxor/1", "n": 2, "m": 2,
                             "G_re": [[0.0] * 3] * 3, "G_im": [[0.0] * 3] * 3}))
    assert main(["analyze", str(f), *FAST]) == EXIT_PARSE
    assert "field G_re has wrong shape" in capsys.readouterr().err


def test_factor_space_that_is_not_an_object_exits_parse(tmp_path, capsys):
    payload = tensor_payload([[1.0]])
    payload["X"] = "dual"
    f = tmp_path / "tensor.json"
    f.write_text(json.dumps(payload))
    assert main(["factor", str(f)]) == EXIT_PARSE
    assert "field X must be {kind, dim}" in capsys.readouterr().err


def test_gallery_diagonal_without_coeffs_exits_validation(capsys):
    assert main(["gallery", "diagonal"]) == EXIT_VALIDATION
    assert "diagonal needs --coeffs" in capsys.readouterr().err


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


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norms_of_tiny_and_huge_tuples(tmp_path, scale):
    # the squares of these entries underflow or overflow unscaled
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2)]
    results = []
    for s in (1.0, scale):
        f, out = tmp_path / "tuple.json", tmp_path / "norms.json"
        f.write_text(json.dumps({
            "schema": "qxor-tuple/1",
            "entries_re": [(s * m.real).tolist() for m in mats],
            "entries_im": [(s * m.imag).tolist() for m in mats],
        }))
        assert main(["norms", str(f), "--out", str(out)]) == EXIT_OK
        results.append(json.loads(out.read_text()))
    base, res = results
    for key in ("row", "col", "rc"):
        assert res[key] == pytest.approx(scale * base[key], rel=1e-12)
    assert res["rplus2c"] == pytest.approx(scale * base["rplus2c"], rel=1e-6)
    assert 0 < res["rplus2c_lower"] <= res["rplus2c"]
    assert base["rplus2c_lower"] <= base["rplus2c"]


def test_norms_weight_of_a_tiny_tuple_stays_an_upper_bound(tmp_path):
    # at scale 1e-200 the weight rplus2c**2 is below the normal float range;
    # it is rounded up, never to zero; a normal-range weight is the plain square
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2)]
    for s in (1.0, 1e-200):
        f, out = tmp_path / "tuple.json", tmp_path / "norms.json"
        f.write_text(json.dumps({
            "schema": "qxor-tuple/1",
            "entries_re": [(s * m.real).tolist() for m in mats],
            "entries_im": [(s * m.imag).tolist() for m in mats],
        }))
        assert main(["norms", str(f), "--out", str(out)]) == EXIT_OK
        res = json.loads(out.read_text())
        assert Fraction(res["weight"]) >= Fraction(res["rplus2c"]) ** 2
        if s == 1.0:
            assert res["weight"] == res["rplus2c"] * res["rplus2c"]


def test_the_chsh_tensor_file_is_the_chsh_kernel_as_tensor_from_kernel_builds_it():
    from qxor.factor import tensor_from_kernel

    z = tensor_from_kernel(chsh().G, 2, 2)
    payload = json.loads(CHSH_TENSOR.read_text())
    assert payload == {"schema": "qxor-tensor/1", "X": {"kind": "dual", "dim": 2},
                       "Y": {"kind": "dual", "dim": 2}, "coeff_re": z.coeff.real.tolist(),
                       "coeff_im": z.coeff.imag.tolist()}


def test_factor_on_the_chsh_tensor_file_is_an_interval_and_repeats_byte_for_byte(capsys):
    # the console step of CI runs this command on the CLI's budget defaults
    outputs = []
    for _ in range(2):
        assert main(["factor", str(CHSH_TENSOR), "--levels", "1,2,4"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    iv = json.loads(outputs[0])["factorization_interval"]
    assert iv["lower"] <= iv["upper"]
    assert outputs[0] == outputs[1]


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
    assert main(["factor", str(f), "--restarts", "3", "--sweeps", "50", "--levels", "1,2",
                 "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())
    assert res["gamma_upper"] > 0
    iv = res["factorization_interval"]
    assert iv["lower"] <= iv["upper"] + 1e-9


def test_analyze_bad_episodes_exit_parse(tmp_path, capsys):
    payload = chsh_episodes_payload()
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


def test_analyze_reads_an_old_file_as_the_gallery_game(tmp_path, monkeypatch):
    # the same relative name in two directories, so the game ids agree too
    reports = []
    for name, write in (("old", lambda f: f.write_text(CHSH_EPISODES.read_text())),
                        ("new", lambda f: write_game(f, chsh()))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        write(tmp_path / name / "chsh.json")
        assert main(["analyze", "chsh.json", *FAST, "--out", "report.json"]) == EXIT_OK
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert "episodes" in json.loads(CHSH_EPISODES.read_text())
    assert reports[0] == reports[1]


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


def test_selftest_json_reports_each_criterion(monkeypatch, capsys):
    from qxor import acceptance

    def fails():
        raise AssertionError("deliberate")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion("P1", "passes", lambda: None),
        acceptance.Criterion("F1", "fails", fails),
    ))
    assert main(["selftest", "--json"]) == EXIT_SELFTEST_FAIL
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert [(c["id"], c["result"]) for c in report["criteria"]] == [("P1", "pass"), ("F1", "fail")]
    assert all(c["seconds"] >= 0 for c in report["criteria"])
    assert "first failing criterion: F1" in captured.err


@pytest.mark.parametrize("flag", ["--messages", "--ancilla", "--levels"])
@pytest.mark.parametrize("value", ["x", "1,", "0,1", "1.5", "", str(2**63)])
def test_bad_schedule_exit_parse(tmp_path, capsys, flag, value):
    if flag == "--levels":  # only factor reads the level schedule
        f = tmp_path / "tensor.json"
        f.write_text(json.dumps(tensor_payload([[1.0]])))
        argv = ["factor", str(f), flag, value]
    else:
        f = tmp_path / "chsh.json"
        write_game(f, chsh())
        argv = ["analyze", str(f), *FAST, flag, value]
    assert main(argv) == EXIT_PARSE
    assert f"parse error: {flag}" in capsys.readouterr().err


def test_gallery_bad_coeffs_exit_parse(capsys):
    for coeffs in ("a,b;1,2", "1,2;3"):
        assert main(["gallery", "diagonal", "--coeffs", coeffs]) == EXIT_PARSE
        assert "parse error: --coeffs" in capsys.readouterr().err


@given(st.one_of(st.text(), st.text(alphabet="0123456789,+-_ x")))
def test_parse_schedule_is_total(text):
    try:
        schedule = _parse_schedule(text, "--messages")
    except SchemaError as exc:
        assert str(exc).startswith("--messages")
    else:
        assert schedule == tuple(sorted(set(schedule)))
        assert all(isinstance(v, int) and v >= 1 for v in schedule)


@given(st.lists(st.integers(1, 64), min_size=1))
def test_parse_schedule_sorts_and_deduplicates(values):
    text = ",".join(map(str, values))
    assert _parse_schedule(text, "--levels") == tuple(sorted(set(values)))


# the chsh file of an earlier version, which lists the game's episodes
OLD = chsh_episodes_payload()


def _game_text(game, path, value):
    """The file of ``game``, a game or a payload, with the field at ``path``
    set to ``value``."""
    payload = copy.deepcopy(game) if isinstance(game, dict) else game_to_payload(game)
    obj = payload
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return json.dumps(payload)


@pytest.mark.parametrize("text, code", [
    pytest.param(_game_text(random_game(1, 2, seed=0), ("n",), True), EXIT_PARSE, id="n-true"),
    pytest.param(_game_text(random_game(2, 1, seed=0), ("m",), True), EXIT_PARSE, id="m-true"),
    pytest.param(_game_text(OLD, ("episodes", 0, "c"), True), EXIT_PARSE, id="c-true"),
    pytest.param(_game_text(OLD, ("episodes", 0, "p"), "0.25"), EXIT_PARSE, id="p-string"),
    pytest.param(_game_text(OLD, ("episodes", 0, "c"), 1.7), EXIT_PARSE, id="c-fraction"),
    pytest.param(_game_text(OLD, ("episodes", 0, "c"), 1e400), EXIT_PARSE, id="c-infinite"),
    pytest.param(_game_text(OLD, ("episodes", 0, "p"), 10**400), EXIT_PARSE, id="p-huge-int"),
    pytest.param(_game_text(OLD, ("episodes", 0, "p"), math.nan), EXIT_VALIDATION, id="p-nan"),
    pytest.param(_game_text(OLD, ("G_re", 0, 0), 10**400), EXIT_PARSE, id="G-huge-int"),
    pytest.param(_game_text(OLD, ("G_im",), [[0.0] * 4]), EXIT_PARSE, id="G-im-broadcast"),
    pytest.param("[" * 100_000, EXIT_PARSE, id="deep-nesting"),
])
def test_analyze_malformed_game_files(tmp_path, capsys, text, code):
    f = tmp_path / "game.json"
    f.write_text(text)
    assert main(["analyze", str(f), *FAST]) == code
    expected = "parse error:" if code == EXIT_PARSE else "validation error:"
    assert expected in capsys.readouterr().err


def test_factor_boolean_dim_exit_parse(tmp_path, capsys):
    f = tmp_path / "tensor.json"
    for x, y in ((("dual", True), ("dual", 1)), (("matrix", 1), ("dual", True))):
        f.write_text(json.dumps(tensor_payload([[1.0]], x, y)))
        assert main(["factor", str(f)]) == EXIT_PARSE
        assert "parse error:" in capsys.readouterr().err


def test_factor_huge_coefficient_does_not_overflow(tmp_path):
    f = tmp_path / "tensor.json"
    f.write_text(json.dumps(tensor_payload([[1e308 + 1e308j]])))
    out = tmp_path / "factor.json"
    assert main(["factor", str(f), "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())
    # dim 1: gamma is |c| / sqrt(2) at the balanced quadratic splitting
    assert res["gamma_upper"] == pytest.approx(abs(1e308 + 1e308j) / math.sqrt(2), rel=1e-9)


def test_factor_float_max_tensor_scales_back_exactly(tmp_path):
    # the coefficient is evaluated at the scale 2**-1024 and the bounds are
    # scaled back; the reference file holds that scaled coefficient itself
    big = 1.7976931348623157e308
    results = []
    for c in (complex(big, big), complex(big, big) / 2.0**512 / 2.0**512):
        f, out = tmp_path / "tensor.json", tmp_path / "factor.json"
        f.write_text(json.dumps(tensor_payload([[c]])))
        assert main(["factor", str(f), "--levels", "1", "--out", str(out)]) == EXIT_OK
        results.append(json.loads(out.read_text()))
    res, ref = results
    assert res["gamma_upper"] == ref["gamma_upper"] * 2.0**512 * 2.0**512
    assert res["x_norm_upper"] == ref["x_norm_upper"] * 2.0**512
    assert res["y_norm_upper"] == ref["y_norm_upper"] * 2.0**512
    # |c| = sqrt(2) * big is beyond the float range: the lower rounds down
    # to the largest float and the upper is unbounded
    assert res["factorization_interval"]["lower"] == big
    assert res["factorization_interval"]["upper"] is None


def _episodes_edited(edit):
    """The file of :data:`OLD` with ``edit`` applied to its episode list."""
    payload = copy.deepcopy(OLD)
    edit(payload["episodes"])
    return json.dumps(payload)


# a 2 x 2 game whose one episode state is 3 x 3
WRONG_SIZE_EPISODE = {"schema": "qxor/1", "n": 2, "m": 2,
                      "G_re": (np.eye(4) / 4).tolist(), "G_im": np.zeros((4, 4)).tolist(),
                      "episodes": [{"p": 1, "c": 1, "rho_re": (np.eye(3) / 3).tolist(),
                                    "rho_im": np.zeros((3, 3)).tolist()}]}


@pytest.mark.parametrize("command, text, message", [
    pytest.param("analyze", json.dumps(WRONG_SIZE_EPISODE),
                 "episode state must be 4 x 4, got 3 x 3", id="episode-3x3"),
    pytest.param("analyze", _episodes_edited(lambda eps: eps[0].update(c=-1)),
                 "episodes do not reproduce the game operator", id="episode-wrong-sign"),
    pytest.param("analyze", _episodes_edited(lambda eps: eps[0].update(p=0.5)),
                 "episode probabilities sum to 1.250000000000000, not 1", id="episode-weight"),
    pytest.param("analyze", _episodes_edited(lambda eps: eps.pop()),
                 "episode probabilities sum to 0.750000000000000, not 1", id="episode-dropped"),
    pytest.param("analyze", _episodes_edited(
        lambda eps: eps[0].update(rho_re=np.diag([2, -1, 0, 0]).tolist())),
        "episode state must be positive semidefinite", id="episode-not-psd"),
    pytest.param("norms",
                 '{"schema": "qxor-tuple/1", "entries_re": [[[1.0]]], "entries_im": [[[1e400]]]}',
                 "matrix entries must be finite", id="infinite-im"),
    pytest.param("analyze",
                 json.dumps({"schema": "qxor/1", "n": 1, "m": 2,
                             "G_re": [[0.0, 1.7e308], [-1.7e308, 0.0]],
                             "G_im": [[0.0, 0.0], [0.0, 0.0]]}),
                 "matrix is not Hermitian: defect inf exceeds tolerance 1.700e+296",
                 id="non-hermitian-near-float-max"),
    pytest.param("analyze",
                 json.dumps({"schema": "qxor/1", "n": 1, "m": 2,
                             "G_re": [[1.7976931348623157e308, 0.0],
                                      [0.0, -1.7976931348623157e308]],
                             "G_im": [[0.0, 0.0], [0.0, 0.0]]}),
                 "game trace norm is at least 1.797693e+308 and exceeds one",
                 id="hermitian-at-float-max"),
])
def test_malformed_files_exit_without_runtime_warnings(tmp_path, capsys, command, text,
                                                       message):
    f = tmp_path / "input.json"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, str(f)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "game.json", "--levels", "1"],
    ["hierarchy", "--count", "0", "--levels", "1"],
    *(["norms", "tuple.json", flag, "1"] for flag in (
        "--seed", "--restarts", "--sweeps", "--tol", "--messages", "--ancilla", "--levels")),
    ["norms", "tuple.json", "--format", "csv"],
    ["factor", "tensor.json", "--messages", "1"],
    ["factor", "tensor.json", "--ancilla", "1"],
    ["factor", "tensor.json", "--format", "json"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def budget_argv(tmp_path, command):
    """A small valid run of one of the subcommands that take budget flags."""
    if command == "analyze":
        f = tmp_path / "chsh.json"
        write_game(f, chsh())
        return ["analyze", str(f), *FAST]
    if command == "hierarchy":
        return ["hierarchy", "--count", "1", "--restarts", "1", "--sweeps", "5"]
    f = tmp_path / "tensor.json"
    f.write_text(json.dumps(tensor_payload([[1.0]])))
    return ["factor", str(f), "--restarts", "1", "--sweeps", "5"]


@pytest.mark.parametrize("command", ["analyze", "hierarchy", "factor"])
def test_nan_tolerance_exits_validation(tmp_path, capsys, command):
    # NaN compares False with every tolerance stop, so it would run each
    # see-saw to its sweep cap; an infinite one would stop each after a sweep
    argv = budget_argv(tmp_path, command)
    for tol in ("nan", "inf"):
        assert main([*argv, "--tol", tol]) == EXIT_VALIDATION
        assert "budget tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
@pytest.mark.parametrize("command", ["analyze", "hierarchy", "factor"])
def test_seed_outside_32_bits_exits_validation(tmp_path, capsys, command, seed):
    # hierarchy seeds its games from --seed too, so the budget must reject
    # the seed before any game is drawn
    argv = budget_argv(tmp_path, command)
    assert main([*argv, "--seed", seed]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "budget seed must be an integer in [0, 2**32)" in err
    assert "Traceback" not in err


# 2000000000 is a size numpy refuses without allocating, so a run that got
# past the check would fail at once rather than exhaust memory
@pytest.mark.parametrize("argv", [
    ["hierarchy", "--count", "1", "--m", "2", "--n", "2000000000"],
    ["hierarchy", "--count", "1", "--n", "2", "--m", "2000000000"],
    ["hierarchy", "--count", "1", "--m", "0"],
    ["gallery", "swap", "--n", "2000000000"],
    ["gallery", "hadamard", "--n", "2000000000"],
    ["gallery", "swap", "--n", str(MAX_REGISTER_DIM + 1)],
    ["gallery", "swap", "--n", "0"],
    ["gallery", "swap", "--n", "-1"],
], ids=" ".join)
def test_register_dimension_outside_the_cap_exits_validation(capsys, argv):
    flag = argv[-2]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert f"{flag} must be an integer in [1, {MAX_REGISTER_DIM}], got {argv[-1]}" in err
    assert out == ""


def test_gallery_takes_the_largest_register_dimension(tmp_path):
    out = tmp_path / "swap.json"
    assert main(["gallery", "swap", "--n", str(MAX_REGISTER_DIM), "--out", str(out)]) == EXIT_OK
    assert game_from_payload(json.loads(out.read_text())).n == MAX_REGISTER_DIM


# one above each cap, plus 10000000 where a run that got past the check asks
# numpy for petabytes, which it refuses without allocating
@pytest.mark.parametrize("command, flag, value, cap", [
    ("analyze", "--ancilla", str(MAX_REGISTER_DIM + 1), MAX_REGISTER_DIM),
    ("analyze", "--ancilla", "1,10000000", MAX_REGISTER_DIM),
    ("hierarchy", "--ancilla", str(MAX_REGISTER_DIM + 1), MAX_REGISTER_DIM),
    ("analyze", "--messages", str(2 * MAX_REGISTER_DIM + 1), 2 * MAX_REGISTER_DIM),
    ("hierarchy", "--messages", f"1,{2 * MAX_REGISTER_DIM + 1}", 2 * MAX_REGISTER_DIM),
    ("factor", "--levels", str(MAX_REGISTER_DIM + 1), MAX_REGISTER_DIM),
    ("factor", "--levels", "1,10000000", MAX_REGISTER_DIM),
], ids=str)
def test_schedule_entry_above_the_cap_exits_validation(tmp_path, capsys, command, flag, value,
                                                        cap):
    argv = [*budget_argv(tmp_path, command), flag, value]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert f"{flag} entries must be at most {cap}, got {value.split(',')[-1]}" in err
    assert out == ""


@pytest.mark.parametrize("coeffs, shape", [
    (",".join(["0"] * (MAX_REGISTER_DIM + 1)), "1 x 9"),
    (";".join(["0.1"] * (MAX_REGISTER_DIM + 1)), "9 x 1"),
    ("0,0,0,0,0,0,0,0,0,0.5", "1 x 10"),
])
def test_diagonal_coefficients_above_the_cap_exit_validation(capsys, coeffs, shape):
    assert main(["gallery", "diagonal", "--coeffs", coeffs]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert f"--coeffs must have at most {MAX_REGISTER_DIM} rows and columns, got {shape}" in err
    assert out == ""


@pytest.mark.parametrize("command, flag, cap", [
    ("analyze", "--ancilla", MAX_REGISTER_DIM),
    ("analyze", "--messages", 2 * MAX_REGISTER_DIM),
    ("factor", "--levels", MAX_REGISTER_DIM),
], ids=str)
def test_schedule_takes_its_cap(tmp_path, command, flag, cap):
    out = tmp_path / "out.json"
    assert main([*budget_argv(tmp_path, command), flag, f"1,{cap}", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    if flag == "--messages":
        assert [r["d"] for r in report["rows"][0]["beta_owc_per_d"]] == [1, cap]
    elif flag == "--levels":
        assert "factorization_interval" in report


# --- schema fuzzing: every file ends in exit 0, 2 or 3, never a traceback ---

# values that JSON carries but a number field may not take: a boolean, a
# fraction where an integer belongs, overflowing floats and integers
EDGES = st.sampled_from([True, 1.7, 1e308, -1e308, math.inf, math.nan, 10**400])
NUMBERS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats(), EDGES)
JUNK = st.recursive(
    st.one_of(st.none(), st.integers(), st.text(max_size=3), EDGES),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def matrices(rows, cols=None):
    row = st.lists(NUMBERS, min_size=cols or rows, max_size=cols or rows)
    return st.lists(row, min_size=rows, max_size=rows)


def _field_paths(obj, prefix=()):
    """Paths to every field and list item, not descending into matrices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        if not str(key).endswith(("_re", "_im")):
            yield from _field_paths(value, prefix + (key,))


@st.composite
def mutated(draw, payloads):
    """A payload with at most one field replaced by junk or deleted."""
    payload = copy.deepcopy(draw(payloads))
    paths = list(_field_paths(payload))
    action = draw(st.sampled_from(["keep", "replace", "delete"]))
    if action == "keep" or not paths:
        return payload
    path = draw(st.sampled_from(paths))
    obj = payload
    for key in path[:-1]:
        obj = obj[key]
    if action == "replace":
        obj[path[-1]] = draw(JUNK)
    else:
        del obj[path[-1]]
    return payload


@st.composite
def game_payloads(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    k = n * m
    payload = {"schema": "qxor/1", "n": n, "m": m,
               "G_re": draw(matrices(k)), "G_im": draw(matrices(k))}
    if draw(st.booleans()):
        episode = st.fixed_dictionaries({"p": NUMBERS, "c": NUMBERS,
                                         "rho_re": matrices(k), "rho_im": matrices(k)})
        payload["episodes"] = draw(st.lists(episode, max_size=2))
    return payload


@st.composite
def tuple_payloads(draw):
    rows, cols, d = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entries = st.lists(matrices(rows, cols), min_size=d, max_size=d)
    return {"schema": "qxor-tuple/1", "entries_re": draw(entries), "entries_im": draw(entries)}


@st.composite
def tensor_payloads(draw):
    space = st.fixed_dictionaries({"kind": st.sampled_from(["matrix", "dual"]),
                                   "dim": st.integers(1, 2)})
    x, y = draw(space), draw(space)
    shape = (x["dim"] ** 2, y["dim"] ** 2)
    return {"schema": "qxor-tensor/1", "X": x, "Y": y,
            "coeff_re": draw(matrices(*shape)), "coeff_im": draw(matrices(*shape))}


TINY = ["--restarts", "1", "--sweeps", "2"]
FUZZ = {
    "analyze": (st.one_of(st.just(OLD), st.just(WRONG_SIZE_EPISODE),
                          game_payloads()),
                [*TINY, "--messages", "1", "--ancilla", "1"]),
    "norms": (tuple_payloads(), []),
    "factor": (tensor_payloads(), [*TINY, "--levels", "1"]),
}


@pytest.mark.parametrize("command", sorted(FUZZ))
def test_fuzzed_files_never_raise(tmp_path_factory, command):
    payloads, flags = FUZZ[command]
    work = tmp_path_factory.mktemp(command)
    path, out = work / "input.json", work / "out.json"

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(mutated(payloads))
    def check(payload):
        path.write_text(json.dumps(payload))
        code = main([command, str(path), *flags, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)

    check()
