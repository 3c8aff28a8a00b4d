import json
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner

from offdiag import stability, suite, symbols
from offdiag.cli import (_Cli, main, parse_weight_matrix, parse_weight_sequence,
                         write_json_artifact)
from offdiag.inversion import wiener_invert
from offdiag.lattice import Window, generate, load_matrix, save_matrix, save_sequence
from offdiag.lattice import LatticeSequence
from offdiag.muckenhoupt import WeightSequence
from offdiag.symbols import SymbolCoeffs, toeplitz_matrix


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def matrix_file(tmp_path):
    win = Window(1, 16)
    path = tmp_path / "m.json"
    save_matrix(generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0}), path)
    return path


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestVerbs:
    def test_gen_and_norm(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = _invoke(runner, ["gen", "--kind", "banded_random", "--radius", "6",
                               "--bandwidth", "2", "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0
        assert (out / "matrix.json").exists()
        res = _invoke(runner, ["norm", "--matrix", str(matrix_file), "--p", "1",
                               "--weight", "trivial", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "norm_report.json").read_text())
        assert doc["beurling"] == 4.0
        assert doc["schema_version"] == 1 and "config_hash" in doc

    def test_identity_norm_output(self, runner, tmp_path):
        out = tmp_path / "o"
        win = Window(1, 8)
        path = tmp_path / "i.json"
        save_matrix(generate("identity", win), path)
        res = _invoke(runner, ["norm", "--matrix", str(path), "--p", "1", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "norm_report.json").read_text())
        assert doc["beurling"] == doc["sjostrand"] == doc["schur"] == 1.0

    def test_weights_aq(self, runner, tmp_path):
        out = tmp_path / "o"
        res = _invoke(runner, ["weights", "aq", "--wseq", "power:0.5", "--radius", "16",
                               "--q", "2", "--ncap", "8", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "aq_report.json").read_text())
        assert doc["bound"] >= 1.0

    def test_weights_maximal(self, runner, tmp_path):
        out = tmp_path / "o"
        win = Window(1, 8)
        path = tmp_path / "c.json"
        save_sequence(LatticeSequence.delta(win), path)
        res = _invoke(runner, ["weights", "maximal", "--seq", str(path), "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "maximal.json").read_text())
        assert doc["sequence"]["radius"] == 8

    def test_stability_and_cross(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = _invoke(runner, ["stability", "--matrix", str(matrix_file), "--q", "2",
                               "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "stability_report.json").read_text())
        assert doc["verdict"] == "stable"
        res = _invoke(runner, ["stability", "cross", "--matrix", str(matrix_file),
                               "--trials", "10", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "stability_cross.json").read_text())
        assert doc["consistent"] is True
        csv_text = (out / "stability_cross.csv").read_text()
        assert csv_text.splitlines()[1] == "q,weight,lower,upper,verdict,method"

    def test_invert(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = _invoke(runner, ["invert", "--matrix", str(matrix_file), "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "inverse_report.json").read_text())
        assert doc["converged"] is True
        prof_lines = (out / "inverse_profile.csv").read_text().splitlines()
        assert prof_lines[0].startswith("# schema_version=")
        assert prof_lines[1] == "n,h"
        h = wiener_invert(load_matrix(matrix_file))[1].inverse_profile
        assert prof_lines[2:] == [f"{n},{float(v)!r}" for n, v in enumerate(h)]
        inv_doc = json.loads((out / "inverse_matrix.json").read_text())
        assert "config_hash" in inv_doc and "entries" in inv_doc

    def test_thetafit(self, runner, tmp_path):
        out = tmp_path / "o"
        res = _invoke(runner, ["thetafit", "--u", "polynomial:2", "--p", "2",
                               "--tmax", "1e5", "--tpoints", "31", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "thetafit.json").read_text())
        assert doc["satisfied"] is True
        assert 0.3 <= doc["theta"] <= 0.5

    def test_radius(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = _invoke(runner, ["radius", "--matrix", str(matrix_file), "--nmax", "6",
                               "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "radius_roots.csv").read_text().splitlines()
        assert lines[1] == "n,root"
        assert len(lines) == 8

    def test_toeplitz_verbs(self, runner, tmp_path):
        out = tmp_path / "o"
        res = _invoke(runner, ["toeplitz", "minmod", "--coeffs", "2@0,1@1",
                               "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "minmod.json").read_text())
        assert doc["min_modulus"] == pytest.approx(1.0, abs=1e-12)
        assert doc["certified"] is True

        res = _invoke(runner, ["toeplitz", "recip", "--coeffs", "2@0,1@1",
                               "--tol", "1e-10", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "reciprocal_report.json").read_text())
        assert doc["astar_norm"] == pytest.approx(1.0, abs=1e-10)
        rows = (out / "reciprocal_coeffs.csv").read_text().splitlines()
        row0 = [r for r in rows[2:] if r.startswith("0,")][0]
        assert abs(float(row0.split(",")[1]) - 0.5) < 1e-10

        res = _invoke(runner, ["toeplitz", "stability", "--coeffs", "1@0,-1@1",
                               "--radii", "8,16", "--trials", "5", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "toeplitz_stability.json").read_text())
        assert doc["verdict"] == "degrading"

    def test_toeplitz_stability_table_ladder(self, runner, tmp_path):
        # one radius-32 table serves every rung of the ladder, restricted per radius
        top = Window(1, 32)
        vals = 1.0 + 0.5 * np.cos(top.indices[:, 0])
        w_path, out = tmp_path / "w.json", tmp_path / "o"
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": 32, "values":
                                      [[int(i), float(v)] for i, v in zip(top.indices[:, 0], vals)]}))
        res = _invoke(runner, ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                               "--wseq", str(w_path), "--radii", "16,32", "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "toeplitz_stability.json").read_text())
        w_top = WeightSequence.table(top, vals)
        for row, r in zip(doc["brackets"], (16, 32)):
            win = Window(1, r)
            a = toeplitz_matrix(SymbolCoeffs(1, {0: 2.0, 1: 1.0}), win)
            rep = stability.stability_bracket(a, 2.0, w_top.restrict(win))
            assert (row["radius"], row["lower"], row["upper"]) == (r, rep.lower, rep.upper)
        assert "table(R=16)" in (out / "toeplitz_stability.csv").read_text()

    def test_coeffs_from_json_file(self, runner, tmp_path):
        from offdiag.symbols import SymbolCoeffs, symbol_to_dict

        path = tmp_path / "sym.json"
        path.write_text(json.dumps(symbol_to_dict(SymbolCoeffs(1, {0: 2.0, 1: 1.0}))))
        out = tmp_path / "o"
        res = _invoke(runner, ["toeplitz", "minmod", "--coeffs", str(path),
                               "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "minmod.json").read_text())
        assert doc["min_modulus"] == pytest.approx(1.0, abs=1e-12)


class TestExitCodes:
    def test_validation_failure(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--kind", "banded_random", "--radius", "4",
                                   "--out", str(tmp_path)])  # missing bandwidth/seed
        assert res.exit_code == 1

    def test_numerical_failure(self, runner, tmp_path):
        win = Window(1, 8)
        path = tmp_path / "sing.json"
        save_matrix(generate("toeplitz_from_coeffs", win,
                             coeffs={0: 1.0, 1: -1.0}), path)
        # unipotent truncation: convergence stalls within a tiny term cap
        res = runner.invoke(main, ["invert", "--matrix", str(path), "--kmax", "3",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("series not converged at ") and res.stderr.count("\n") == 1

    def test_inverted_bracket_exit_code(self, runner, tmp_path, matrix_file, monkeypatch):
        # a zero A_q bound makes the sampled bracket's upper end 0 < lower
        monkeypatch.setattr(stability, "aq_bound", lambda *args: SimpleNamespace(bound=0.0))
        res = runner.invoke(main, ["stability", "--matrix", str(matrix_file), "--q", "4",
                                   "--trials", "5", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "bracket inverted" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("rows", [[[0]], [[0, 2.0], [0, 3.0]], [[9, 2.0]]])
    def test_bad_weight_table_exit_code(self, runner, tmp_path, rows):
        # a short row, two rows at one point, a point off the window
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"form": "table", "d": 1, "radius": 2, "values": rows}))
        res = runner.invoke(main, ["weights", "aq", "--wseq", str(path), "--radius", "2",
                                   "--q", "2", "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "np.int64" not in res.output

    def test_linalg_failure_exit_code(self, runner, tmp_path, matrix_file, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        res = runner.invoke(main, ["invert", "--matrix", str(matrix_file),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "numerical failure" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("verb", ["norm", "invert", "maximal", "aq"])
    def test_non_finite_value_exit_code(self, runner, tmp_path, verb, bad):
        # json writes NaN and Infinity, and json.load reads them back
        rows = {"norm": [[0, 0, 1.0, bad]], "invert": [[0, 0, bad, 0.0]],
                "maximal": [[0, bad, 0.0]], "aq": [[0, bad]]}[verb]
        payload = {"d": 1, "radius": 2, "entries": rows}
        if verb == "aq":
            payload = {"form": "table", "d": 1, "radius": 2, "values": rows}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        args = {"norm": ["norm", "--matrix"], "invert": ["invert", "--matrix"],
                "maximal": ["weights", "maximal", "--seq"],
                "aq": ["weights", "aq", "--radius", "2", "--q", "2", "--wseq"]}[verb]
        res = runner.invoke(main, args + [str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "finite" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("verb", ["matrix", "seq", "wseq"])
    def test_boolean_cell_exit_code(self, runner, tmp_path, verb):
        # json reads true as True, which numpy would take for 1
        payload = {"matrix": {"d": 1, "radius": 2,
                              "entries": [[0, 0, True, 0], [1, True, 1.0, 0]]},
                   "seq": {"d": 1, "radius": 2, "entries": [[0, 1.0, 0.0], [True, 2.0, 0.0]]},
                   "wseq": {"form": "table", "d": 1, "radius": 2,
                            "values": [[0, 2.0], [1, False]]}}[verb]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        args = {"matrix": ["invert", "--matrix"], "seq": ["weights", "maximal", "--seq"],
                "wseq": ["weights", "aq", "--radius", "2", "--q", "2", "--wseq"]}[verb]
        res = runner.invoke(main, args + [str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "numbers only" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("cross, m_radius, w_radius", [(False, 0, 2), (True, 24, 16)])
    def test_weight_window_mismatch_exit_code(self, runner, tmp_path, cross, m_radius, w_radius):
        # a table weight laid on another window than the matrix's
        m_path, w_path = tmp_path / "m.json", tmp_path / "w.json"
        save_matrix(generate("identity", Window(1, m_radius)), m_path)
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": w_radius,
                                      "values": [[0, 2.0]]}))
        args = (["stability", "cross", "--matrix", str(m_path), "--pairs", f"2:{w_path}"]
                if cross else ["stability", "--matrix", str(m_path), "--wseq", str(w_path)])
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "differs from the matrix window" in res.output and "Traceback" not in res.output

    def test_toeplitz_ladder_past_table_exit_code(self, runner, tmp_path, monkeypatch):
        # refused before any bracket runs
        w_path = tmp_path / "w.json"
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": 16,
                                      "values": [[0, 2.0]]}))
        monkeypatch.setattr(symbols, "toeplitz_stability_criterion",
                            lambda *a, **k: pytest.fail("ladder ran"))
        res = runner.invoke(main, ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                   "--wseq", str(w_path), "--radii", "8,16,32",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "not a sub-window" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("args", [
        ["stability", "--q", "4", "--trials", "0"],
        ["stability", "cross", "--trials", "0"],
        ["invert", "--kmax", "0"],
    ], ids=["stability", "cross", "invert"])
    def test_count_below_one_exit_code(self, runner, tmp_path, matrix_file, args):
        # a validation error, not "bracket inverted" or "not converged"
        res = runner.invoke(main, args + ["--matrix", str(matrix_file),
                                          "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "must be >= 1" in res.output
        assert "Traceback" not in res.output

    def test_negative_band_exit_code(self, runner, tmp_path, matrix_file):
        # a negative band would make the whole window interior
        out = tmp_path / "o"
        res = runner.invoke(main, ["stability", "--band", "-1", "--matrix", str(matrix_file),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "band must be >= 0" in res.output
        assert "Traceback" not in res.output
        assert not (out / "stability_report.json").exists()

    @pytest.mark.parametrize("doc", [[], [1, 2], "text", None],
                             ids=["empty-array", "array", "string", "null"])
    @pytest.mark.parametrize("verb", ["matrix", "weight", "wseq", "seq", "coeffs"])
    def test_not_an_object_exit_code(self, runner, tmp_path, matrix_file, verb, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = {"matrix": ["norm", "--matrix", str(path)],
                "weight": ["norm", "--matrix", str(matrix_file), "--weight", str(path)],
                "wseq": ["stability", "--matrix", str(matrix_file), "--wseq", str(path)],
                "seq": ["weights", "maximal", "--seq", str(path)],
                "coeffs": ["toeplitz", "minmod", "--coeffs", str(path)]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "JSON object" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("verb", ["matrix", "weight", "wseq", "coeffs"])
    def test_unreadable_path_exit_code(self, runner, tmp_path, matrix_file, verb):
        # a directory named like a JSON file: open() raises IsADirectoryError
        path = tmp_path / "dir.json"
        path.mkdir()
        args = {"matrix": ["invert", "--matrix", str(path)],
                "weight": ["norm", "--matrix", str(matrix_file), "--weight", str(path)],
                "wseq": ["weights", "aq", "--q", "2", "--wseq", str(path)],
                "coeffs": ["toeplitz", "recip", "--coeffs", str(path)]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("args, message", [
        (["norm", "--matrix", "/nonexistent.json"], "does not exist"),
        (["invert"], "Missing option '--matrix'"),
        (["norm", "--matrix", "{matrix}", "--p", "abc"], "is not a valid float"),
        (["frobnicate"], "No such command"),
        (["stability", "cross", "--matrix", "{matrix}", "--bogus"], "No such option"),
        (["stability", "cross", "--matrix", "{matrix}", "--threads", "2"], "No such option"),
        (["toeplitz", "stability", "--coeffs", "2@0,1@1", "--threads", "2"], "No such option"),
        (["--bogus"], "No such option"),
    ], ids=["missing-file", "missing-option", "bad-float", "unknown-verb", "unknown-option",
            "cross-threads", "toeplitz-threads", "root-option"])
    def test_usage_error_exit_code(self, runner, tmp_path, matrix_file, args, message):
        # click's own usage errors are validation failures, not numerical ones
        args = [a.format(matrix=matrix_file) for a in args]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert message in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("exc_type, code, prefix", [
        (ArithmeticError, 2, "numerical failure"),
        (np.linalg.LinAlgError, 2, "numerical failure"),
        (ValueError, 1, "validation error"),
        (KeyError, 1, "validation error"),
        (OSError, 1, "validation error"),
        (MemoryError, 1, "validation error"),
    ])
    def test_root_group_owns_the_exit_codes(self, runner, exc_type, code, prefix):
        # verbs with no handler of their own, one of them nested in a group
        @click.group(cls=_Cli)
        def root():
            pass

        @root.group("group")
        def group():
            pass

        def fail():
            raise exc_type("boom")

        root.command("verb")(fail)
        group.command("nested")(fail)
        for args in (["verb"], ["group", "nested"]):
            res = runner.invoke(root, args)
            assert res.exit_code == code
            assert isinstance(res.exception, SystemExit)
            assert res.stderr == f"{prefix}: {exc_type('boom')}\n"

    @pytest.mark.parametrize("early, named", [
        (["--trials", "5"], "--trials"),
        (["--out", "ignored", "--trials", "200"], "--trials, --out"),
        (["--matrix", "{matrix}", "--q", "4"], "--matrix, --q"),
    ], ids=["trials", "default-value", "bracket-options"])
    def test_stability_options_before_cross_exit_code(self, runner, tmp_path, matrix_file,
                                                      monkeypatch, early, named):
        # cross reads only its own options: these were dropped, and 200 trials ran
        monkeypatch.chdir(tmp_path)
        early = [a.format(matrix=matrix_file) for a in early]
        res = runner.invoke(main, ["stability", *early, "cross", "--matrix", str(matrix_file),
                                   "--pairs", "4:trivial"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == (f"validation error: {named} before `cross` would be ignored; "
                              "`cross` takes its options after its name\n")
        assert list(tmp_path.iterdir()) == [matrix_file]

    @pytest.mark.parametrize("kind_args, named", [
        (["identity", "--bandwidth", "3", "--alpha", "2", "--coeffs", "1@0"],
         "--bandwidth, --alpha, --coeffs"),
        (["shift", "--seed", "5"], "--seed"),
        (["identity", "--amplitude", "1.0"], "--amplitude"),
        (["banded_random", "--seed", "1", "--bandwidth", "1", "--offset", "2"], "--offset"),
        (["toeplitz_from_coeffs", "--coeffs", "2@0", "--seed", "3", "--alpha", "1"],
         "--seed, --alpha"),
    ], ids=["identity", "shift-seed", "default-value", "banded-offset", "toeplitz"])
    def test_gen_options_its_kind_does_not_take_exit_code(self, runner, tmp_path, monkeypatch,
                                                         kind_args, named):
        # these were dropped, and a --seed was stamped into an artifact no seed made
        monkeypatch.chdir(tmp_path)
        kind, *rest = kind_args
        res = runner.invoke(main, ["gen", "--kind", kind, "--radius", "2", *rest])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"validation error: --kind {kind} does not take {named}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind_args, message", [
        (["banded_random"], "banded_random requires --bandwidth"),
        (["banded_random", "--bandwidth", "1"], "randomized generation requires --seed"),
        (["polynomial_decay_random", "--seed", "1"], "polynomial_decay_random requires --alpha"),
        (["polynomial_decay_random", "--alpha", "2"], "randomized generation requires --seed"),
        (["toeplitz_from_coeffs"], "toeplitz_from_coeffs requires --coeffs"),
    ], ids=["banded-bandwidth", "banded-seed", "polydecay-alpha", "polydecay-seed", "toeplitz"])
    def test_gen_options_its_kind_needs_exit_code(self, runner, tmp_path, monkeypatch,
                                                  kind_args, message):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["gen", "--kind", *kind_args, "--radius", "2"])
        assert res.exit_code == 1
        assert res.stderr == f"validation error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind_args, seed", [
        (["identity", "--d", "2"], None),
        (["shift", "--offset", "-1"], None),
        (["banded_random", "--seed", "4", "--bandwidth", "1", "--amplitude", "2"], 4),
        (["polynomial_decay_random", "--seed", "4", "--alpha", "2", "--amplitude", "2"], 4),
        (["toeplitz_from_coeffs", "--coeffs", "2@0,1@1"], None),
    ], ids=["identity", "shift", "banded", "polydecay", "toeplitz"])
    def test_gen_options_its_kind_takes_pass(self, runner, tmp_path, kind_args, seed):
        out = tmp_path / "o"
        res = runner.invoke(main, ["gen", "--kind", *kind_args, "--radius", "2",
                                   "--out", str(out)])
        assert res.exit_code == 0 and res.stderr == ""
        doc = json.loads((out / "matrix.json").read_text())
        assert doc["seed"] == seed

    @pytest.mark.parametrize("verb_args, file_d, call_d", [
        (["toeplitz", "minmod", "--d", "2"], 1, 2),
        (["toeplitz", "stability", "--d", "2", "--radii", "2,4"], 1, 2),
        (["gen", "--kind", "toeplitz_from_coeffs", "--d", "2", "--radius", "2"], 1, 2),
        (["toeplitz", "minmod"], 2, 1),
        (["toeplitz", "recip"], 2, 1),  # recip runs at d = 1 alone
    ], ids=["minmod", "stability", "gen", "minmod-d2-file", "recip"])
    def test_symbol_file_of_another_d_exit_code(self, runner, tmp_path, monkeypatch, verb_args,
                                                file_d, call_d):
        # minmod computed at the file's d = 1 and exited 0; stability read "not a sub-window"
        monkeypatch.chdir(tmp_path)
        Path("sym.json").write_text(json.dumps({"d": file_d,
                                                "coeffs": [[0] * file_d + [2.0, 0.0]]}))
        res = runner.invoke(main, [*verb_args, "--coeffs", "sym.json", "--out", "o"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == (f"validation error: symbol file sym.json has d={file_d}, "
                              f"but the call runs at d={call_d}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sym.json"]

    def test_suite_failed_criteria_exit_code(self, runner, tmp_path, monkeypatch):
        def criterion(cid, passed):
            return cid, lambda seed, quick: suite.CriterionResult(cid, "stub", passed, "summary")

        monkeypatch.setattr(suite, "CRITERIA", [criterion("C01", True), criterion("C02", False)])
        res = runner.invoke(main, ["suite", "--quick", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout.splitlines()[-1] == "1/2 criteria passed"
        assert res.stderr == "failed criteria: C02\n"

    @pytest.mark.parametrize("args", [["--help"], ["invert", "--help"],
                                      ["toeplitz", "stability", "--help"]],
                             ids=["root", "verb", "nested-verb"])
    def test_help_exit_code(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert "Usage:" in res.output

    def test_radius_overflow_exit_code(self, runner, tmp_path):
        # ||A^2|| overflows: refused, not reported as root nan and estimate 0.0
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": 1, "radius": 1,
                                    "entries": [[0, 0, 1e200, 0], [1, 0, 1, 0]]}))
        out = tmp_path / "o"
        res = runner.invoke(main, ["radius", "--matrix", str(path), "--out", str(out)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "numerical failure" in res.output and "overflows" in res.output
        assert "Traceback" not in res.output
        assert not (out / "radius_report.json").exists()

    @pytest.mark.parametrize("p", ["0.5", "-1", "nan"])
    @pytest.mark.parametrize("verb", ["norm", "radius"])
    def test_exponent_below_one_exit_code(self, runner, tmp_path, matrix_file, verb, p):
        res = runner.invoke(main, [verb, "--matrix", str(matrix_file), f"--p={p}",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "p must lie in" in res.output
        assert "Traceback" not in res.output

    def test_norm_p_zero_reads_as_infinity(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = runner.invoke(main, ["norm", "--matrix", str(matrix_file), "--p", "0",
                                   "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "norm_report.json").read_text())
        assert doc["p"] == "inf" and doc["beurling"] == doc["jaffard"] == 2.0

    def test_radius_p_zero_reads_as_infinity(self, runner, tmp_path, matrix_file):
        written = []
        for p in ("0", "inf"):
            out = tmp_path / p
            res = runner.invoke(main, ["radius", "--matrix", str(matrix_file), "--p", p,
                                       "--out", str(out)])
            assert res.exit_code == 0
            written.append([(out / name).read_bytes()
                            for name in ("radius_roots.csv", "radius_report.json")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("args", [["--tpoints", "0"], ["--tpoints", "1"],
                                      ["--tpoints", "2", "--tmax", "1"]],
                             ids=["no-point", "one-point", "one-distinct-point"])
    def test_short_t_grid_exit_code(self, runner, tmp_path, args):
        res = runner.invoke(main, ["thetafit", "--u", "polynomial:2", *args,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "2 distinct points" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("verb, doc", [
        ("matrix", {"d": 1, "radius": 2, "entries": 5}),
        ("matrix", {"d": 1, "radius": 2, "entries": [5]}),
        ("matrix", {"d": None, "radius": 2, "entries": []}),
        ("coeffs", {"d": 1, "coeffs": [5]}),
        ("coeffs", {"d": 1, "coeffs": 5}),
        ("coeffs", {"d": 1, "coeffs": [[0, "x", 0]]}),
        ("wseq", {"form": "power", "alpha": "x"}),
        ("wseq", {"form": "power", "alpha": None}),
        ("wseq", {"form": "table", "d": 1, "radius": [16], "values": []}),
        ("weight", {"form": "polynomial", "alpha": None}),
        ("matrix", {"d": 1.7, "radius": 2, "entries": [[0, 0, 1, 0]]}),
        ("matrix", {"d": 1, "radius": 2.5, "entries": [[0, 0, 1, 0]]}),
        ("coeffs", {"d": 1, "coeffs": [[0.5, 2, 0]]}),
        ("coeffs", {"d": 1, "coeffs": [[0, 2, 0], [0, 5, 0]]}),
        ("wseq", {"form": "power", "alpha": "0.5"}),
        ("weight", {"form": "polynomial", "alpha": True}),
        ("matrix", {"d": True, "radius": 2, "entries": [[0, 0, 1, 0]]}),
        ("coeffs", {"d": 1, "coeffs": [[0, True, 0]]}),
    ], ids=["entries-number", "entry-row-number", "d-null", "coeff-row-number",
            "coeffs-number", "coeff-cell-string", "alpha-string", "alpha-null",
            "radius-list", "weight-alpha-null", "d-fraction", "radius-fraction",
            "coeff-index-fraction", "coeff-index-twice", "alpha-numeric-string",
            "weight-alpha-true", "d-true", "coeff-value-true"])
    def test_wrong_field_type_exit_code(self, runner, tmp_path, matrix_file, verb, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = {"matrix": ["norm", "--matrix", str(path)],
                "weight": ["norm", "--matrix", str(matrix_file), "--weight", str(path)],
                "wseq": ["stability", "--matrix", str(matrix_file), "--wseq", str(path)],
                "coeffs": ["toeplitz", "minmod", "--coeffs", str(path)]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("verb, spec", [
        ("wseq", "power:nan"), ("wseq", "power:inf"), ("wseq", "power:1e308"),
        ("weight", "polynomial:inf"), ("weight", "constant:inf"),
        ("weight", '{"form": "polynomial", "alpha": Infinity}'),
        ("wseq", '{"form": "power", "alpha": NaN}'),
    ], ids=["power-nan", "power-inf", "power-overflow", "polynomial-inf", "constant-inf",
            "json-alpha-inf", "json-alpha-nan"])
    def test_non_finite_weight_exit_code(self, runner, tmp_path, matrix_file, verb, spec):
        # these wrote a -inf A_q bound or NaN norms with exit 0; under
        # filterwarnings = error an overflow warning would end in a RuntimeWarning
        if spec.startswith("{"):
            path = tmp_path / "w.json"
            path.write_text(spec)
            spec = str(path)
        args = {"wseq": ["weights", "aq", "--q", "2", "--wseq", spec],
                "weight": ["norm", "--matrix", str(matrix_file), "--weight", spec]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "finite" in res.output
        assert "Traceback" not in res.output and "Warning" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["norm", "--weight", "polynomial:700"],
        ["thetafit", "--u", "polynomial:1100"],
        ["norm", "--weight", "constant:1e308"],
        ["thetafit", "--u", "polynomial:2", "--v", "polynomial:1000", "--nmax", "64"],
        ["norm", "--weight", "constant:1e200", "--p", "2"],
    ], ids=["norm-grid", "thetafit-companion", "norm-weighted-magnitude", "thetafit-a-n",
            "norm-power-sum"])
    def test_overflowing_weight_exit_code(self, runner, tmp_path, matrix_file, args):
        # NaN norms with exit 0, and an OverflowError with exit 2, before; inf
        # norms, and theta=nan D=inf, with overflow warnings and exit 0 before
        if args[0] == "norm":
            args = args + ["--matrix", str(matrix_file)]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "overflows" in res.output
        assert "Traceback" not in res.output and "Warning" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, args", [
        (1e305, ["stability", "--q", "4"]),
        (1e305, ["weights", "aq", "--q", "1.5"]),
        (1e-305, ["weights", "aq", "--q", "1.5"]),
    ], ids=["stability-weighted-norm", "aq-dual-underflow", "aq-dual-overflow"])
    def test_weight_table_past_the_float_range_exit_code(self, runner, tmp_path, matrix_file,
                                                         value, args):
        # `stability` read "stable" from the probes that did not overflow, with
        # numpy warnings and exit 0; `weights aq` printed an A_q bound of 0.0
        w_path = tmp_path / "w.json"
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": 16,
                                      "values": [[k, value] for k in range(-16, 17)]}))
        if args[0] == "stability":
            args = args + ["--matrix", str(matrix_file)]
        res = runner.invoke(main, args + ["--wseq", str(w_path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("validation error: ") and res.output.count("\n") == 1
        assert "overflows" in res.output and "Warning" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["weights", "aq", "--q", "2"],
        ["weights", "aq", "--q", "1"],
        ["stability", "--q", "4"],
    ], ids=["aq-q2", "aq-q1", "stability-q4"])
    def test_aq_product_overflow_exit_code(self, runner, tmp_path, matrix_file, args):
        # both totals are finite, yet a cube's product of averages overflows: an
        # overflow warning and `A_q bound inf`, or a bracket up to inf, with exit 0 before
        vals = [[k, 1.0] for k in range(-16, 17)]
        vals[16][1], vals[17][1] = 1e300, 1e-300
        w_path = tmp_path / "w.json"
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": 16, "values": vals}))
        if args[0] == "stability":
            args = args + ["--matrix", str(matrix_file)]
        res = runner.invoke(main, args + ["--wseq", str(w_path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("validation error: ") and res.output.count("\n") == 1
        assert "overflows" in res.output and "Warning" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["invert", "--tol", "inf"],
        ["invert", "--tol", "nan"],
        ["toeplitz", "recip", "--coeffs", "2@0,1@1", "--tol", "nan"],
        ["toeplitz", "recip", "--coeffs", "2@0,1@1", "--tol", "inf"],
        ["thetafit", "--u", "polynomial:2", "--tmax", "nan"],
        ["thetafit", "--u", "polynomial:2", "--tmax", "inf"],
        ["weights", "aq", "--wseq", "power:0.5", "--q", "nan"],
    ], ids=["invert-tol-inf", "invert-tol-nan", "recip-tol-nan", "recip-tol-inf",
            "thetafit-tmax-nan", "thetafit-tmax-inf", "aq-q-nan"])
    def test_non_finite_tolerance_or_grid_exit_code(self, runner, tmp_path, matrix_file, args):
        # invert wrote mu A* as converged, or ran to 512 terms and exited 2; recip
        # wrote 2^20 coefficients; thetafit printed LAPACK messages and exited 2
        if args[0] == "invert":
            args = args + ["--matrix", str(matrix_file)]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("validation error: ") and res.output.count("\n") == 1
        assert "Warning" not in res.output and "Traceback" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["toeplitz", "stability", "--coeffs", "inf@0,1@1", "--radii", "8,16"],
        ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "4", "--coeffs", "nan@0,1@1"],
        ["toeplitz", "minmod", "--coeffs", '{"d": 1, "coeffs": [[0, NaN, 0], [1, 1, 0]]}'],
        ["toeplitz", "stability", "--coeffs", '{"d": 1, "coeffs": [[0, 2, Infinity]]}'],
        ["gen", "--kind", "banded_random", "--radius", "4", "--bandwidth", "1", "--seed", "1",
         "--amplitude", "inf"],
        ["gen", "--kind", "polynomial_decay_random", "--radius", "4", "--seed", "1",
         "--alpha", "nan"],
    ], ids=["toeplitz-inline-inf", "gen-inline-nan", "minmod-json-nan", "toeplitz-json-inf",
            "banded-amplitude-inf", "polynomial-alpha-nan"])
    def test_non_finite_generator_input_exit_code(self, runner, tmp_path, args):
        # each exited 0: after a LAPACK message with verdict=inconclusive, or with
        # a matrix.json holding "inf" or "nan" strings that load_matrix refuses
        if args[-1].startswith("{"):
            path = tmp_path / "s.json"
            path.write_text(args[-1])
            args = args[:-1] + [str(path)]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("validation error: ") and res.output.count("\n") == 1
        assert "finite" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, index", [
        (["toeplitz", "minmod", "--coeffs", "2@0,1@0"], "(0,)"),
        (["gen", "--kind", "toeplitz_from_coeffs", "--radius", "2", "--coeffs", "2@0,1@0,-3@0"],
         "(0,)"),
        (["gen", "--kind", "toeplitz_from_coeffs", "--d", "2", "--radius", "2",
          "--coeffs", "1@0,0;2@0,0"], "(0, 0)"),
    ], ids=["minmod-d1", "gen-d1", "gen-d2"])
    def test_repeated_coefficient_index_exit_code(self, runner, tmp_path, args, index):
        # each exited 0 with the last value: min|a_hat|=1.0, or -3 on the diagonal
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"validation error: two coefficient rows at index {index}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 119. GiB for an array with shape (4000000004,) and "
                     "data type complex128"),
         "validation error: Unable to allocate 119. GiB for an array with shape (4000000004,) "
         "and data type complex128\n"),
        (MemoryError(), "validation error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exit_code(self, runner, tmp_path, monkeypatch, exc, line):
        # an allocation past the host's memory ended in a traceback; the raise
        # is patched in, so nothing is allocated
        def refuse(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(symbols, "symbol_min_modulus", refuse)
        res = runner.invoke(main, ["toeplitz", "minmod", "--coeffs", "1@0,1@1000000000",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == line

    @pytest.mark.parametrize("verb, spec", [
        ("weight", "trivial:xyz"), ("weight", "trivial:1"), ("weight", "trivial:"),
        ("wseq", "trivial:xyz"), ("wseq", "table:1"),
    ])
    def test_parameters_for_a_form_without_any_exit_code(self, runner, tmp_path, matrix_file,
                                                         verb, spec):
        # 'trivial:xyz' ran as the trivial weight with exit 0
        args = {"weight": ["norm", "--matrix", str(matrix_file), "--weight", spec],
                "wseq": ["stability", "--matrix", str(matrix_file), "--wseq", spec]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "takes no parameters" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("d, radius", [(2, 4), (1, 8), (1, 24)])
    def test_aq_table_on_another_window_exit_code(self, runner, tmp_path, d, radius):
        # the table's own window was scanned while the config stamped --d and --radius
        w_path = tmp_path / "w.json"
        w_path.write_text(json.dumps({"form": "table", "d": 1, "radius": 16,
                                      "values": [[0, 2.0]]}))
        args = ["weights", "aq", "--wseq", str(w_path), "--q", "2", "--out", str(tmp_path / "o")]
        assert runner.invoke(main, args).exit_code == 0  # the defaults are d = 1, radius 16
        res = runner.invoke(main, args + ["--d", str(d), "--radius", str(radius),
                                          "--out", str(tmp_path / "p")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "differs from --d" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("point", ["1e20", "100000000000000000000"])
    def test_point_past_int64_exit_code(self, runner, tmp_path, point):
        # the point is named as it was read, with no int64 cast warning
        path = tmp_path / "m.json"
        path.write_text(f'{{"d": 1, "radius": 2, "entries": [[{point}, 0, 1.0, 0.0]]}}')
        res = runner.invoke(main, ["invert", "--matrix", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        shown = "1e+20" if point == "1e20" else point
        assert f"index ({shown},) outside window radius 2" in res.output
        assert "Traceback" not in res.output and "Warning" not in res.output

    @pytest.mark.parametrize("verb, spec", [
        ("weight", "spline:1"), ("weight", {"form": "spline", "alpha": 1.0}),
        ("weight", {"form": "table"}), ("weight", {"form": ["polynomial"]}),
        ("wseq", "spline:1"), ("wseq", {"form": "spline"}), ("wseq", "polynomial:1"),
    ], ids=["weight-inline", "weight-json", "weight-table-json", "weight-json-list",
            "wseq-inline", "wseq-json", "wseq-matrix-form"])
    def test_unknown_weight_form_exit_code(self, runner, tmp_path, matrix_file, verb, spec):
        if isinstance(spec, dict):
            path = tmp_path / "w.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        args = {"weight": ["norm", "--matrix", str(matrix_file), "--weight", spec],
                "wseq": ["stability", "--matrix", str(matrix_file), "--wseq", spec]}[verb]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "validation error" in res.output and "unknown" in res.output
        assert "Traceback" not in res.output

    def test_vanishing_symbol_exit_code(self, runner, tmp_path):
        res = runner.invoke(main, ["toeplitz", "recip", "--coeffs", "1@0,-1@1",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_underflowing_symbol_exit_code(self, runner, tmp_path):
        # 1/a_hat overflowed with three RuntimeWarnings, then the valid input
        # was refused as a validation error (exit 1)
        res = runner.invoke(main, ["toeplitz", "recip", "--coeffs", "1e-310@0",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output == "numerical failure: coefficients of 1/a_hat are not finite at grid 32\n"

    def test_empty_pairs_exit_code(self, runner, tmp_path, matrix_file):
        res = runner.invoke(main, ["stability", "cross", "--matrix", str(matrix_file),
                                   "--pairs", " ; ", "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.output == "validation error: no (q, weight) pairs given\n"


class TestWeightSpecs:
    @pytest.mark.parametrize("inline, doc", [
        ("trivial", {"form": "trivial"}),
        ("polynomial:2.5", {"form": "polynomial", "alpha": 2.5}),
        ("polynomial:2", {"form": "polynomial", "alpha": 2}),
        ("constant:3", {"form": "constant", "c": 3.0}),
        ("subexponential:0.5,0.7", {"form": "subexponential", "delta": 0.5, "tau": 0.7}),
    ])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matrix_inline_and_file_agree(self, tmp_path, inline, doc, d):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        a, b = parse_weight_matrix(inline, d), parse_weight_matrix(str(path), d)
        win = Window(d, 3)
        assert a.descriptor == b.descriptor
        assert a.grid(win).tobytes() == b.grid(win).tobytes()

    @pytest.mark.parametrize("inline, doc", [
        ("trivial", {"form": "trivial"}),
        ("power:0.75", {"form": "power", "alpha": 0.75}),
        ("power:-1", {"form": "power", "alpha": -1}),
    ])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sequence_inline_and_file_agree(self, tmp_path, inline, doc, d):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        win = Window(d, 5)
        a, b = parse_weight_sequence(inline, win), parse_weight_sequence(str(path), win)
        assert a.descriptor == b.descriptor
        assert a.values.tobytes() == b.values.tobytes()

    def test_wrong_parameter_count_refused(self):
        for spec in ("polynomial:1,2", "subexponential:0.5", "constant:"):
            with pytest.raises(ValueError):
                parse_weight_matrix(spec, 1)
        with pytest.raises(ValueError, match="needs alpha"):
            parse_weight_sequence("power:1,2", Window(1, 2))


class TestStrictJson:
    def test_non_finite_and_numpy_values_become_json_types(self, tmp_path):
        path = tmp_path / "a.json"
        payload = {"pos": np.float64(np.inf), "neg": -np.inf, "nan": [np.nan, 1.5],
                   "array": np.array([[1.0, np.inf], [2.0, 3.0]]), "pair": (1, np.int64(2)),
                   "flag": np.bool_(True), "keyed": {128: np.float32(0.5)}}
        write_json_artifact(path, payload, {"command": "test"}, None)

        def refuse(literal):
            raise AssertionError(f"non-strict literal {literal}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        assert (doc["pos"], doc["neg"], doc["nan"]) == ("inf", "-inf", ["nan", 1.5])
        assert doc["array"] == [[1.0, "inf"], [2.0, 3.0]] and doc["pair"] == [1, 2]
        assert doc["flag"] is True and doc["keyed"] == {"128": 0.5}

    def test_thetafit_divergent_pair_writes_strings(self, runner, tmp_path):
        out = tmp_path / "o"
        res = _invoke(runner, ["thetafit", "--u", "trivial", "--v", "polynomial:1",
                               "--tpoints", "5", "--out", str(out)])
        assert res.exit_code == 0
        text = (out / "thetafit.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text)
        assert doc["diverged"] is True and (doc["D"], doc["theta"]) == ("inf", "nan")
        assert doc["b_tail_bound"] == "inf" and set(doc["margins"]) == {"nan"}

    @pytest.mark.parametrize("delta", ["0.005", "0.001"])
    def test_thetafit_overflowing_gamma_tail_diverges(self, runner, tmp_path, delta):
        # Gamma(1/delta) overflows: the tail is inf and the fit diverges, exit 0
        out = tmp_path / "o"
        res = _invoke(runner, ["thetafit", "--u", f"subexponential:{delta},1", "--p", "2",
                               "--tpoints", "5", "--out", str(out)])
        assert res.exit_code == 0 and "D=inf" in res.output
        assert json.loads((out / "thetafit.json").read_text())["diverged"] is True


class TestDeterminism:
    def test_same_config_same_bytes(self, runner, tmp_path, matrix_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            _invoke(runner, ["stability", "cross", "--matrix", str(matrix_file),
                             "--trials", "15", "--seed", "9", "--out", str(out)])
            _invoke(runner, ["invert", "--matrix", str(matrix_file), "--out", str(out)])
            outs.append(out)
        for fname in ("stability_cross.json", "stability_cross.csv",
                      "inverse_report.json", "inverse_matrix.json",
                      "inverse_profile.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_hash_tracks_config(self, runner, tmp_path, matrix_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _invoke(runner, ["norm", "--matrix", str(matrix_file), "--p", "1", "--out", str(out_a)])
        _invoke(runner, ["norm", "--matrix", str(matrix_file), "--p", "2", "--out", str(out_b)])
        da = json.loads((out_a / "norm_report.json").read_text())
        db = json.loads((out_b / "norm_report.json").read_text())
        assert da["config_hash"] != db["config_hash"]
