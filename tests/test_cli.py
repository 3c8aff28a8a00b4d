import json
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from offdiag import stability, symbols
from offdiag.cli import main
from offdiag.lattice import Window, generate, save_matrix, save_sequence
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

    def test_invert_and_leftinv(self, runner, tmp_path, matrix_file):
        out = tmp_path / "o"
        res = _invoke(runner, ["invert", "--matrix", str(matrix_file), "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "inverse_report.json").read_text())
        assert doc["converged"] is True
        prof_lines = (out / "inverse_profile.csv").read_text().splitlines()
        assert prof_lines[0].startswith("# schema_version=")
        assert prof_lines[1] == "n,h"
        inv_doc = json.loads((out / "inverse_matrix.json").read_text())
        assert "config_hash" in inv_doc and "entries" in inv_doc
        res = _invoke(runner, ["leftinv", "--matrix", str(matrix_file), "--out", str(out)])
        assert res.exit_code == 0

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
                               "--radii", "8,16", "--trials", "5", "--threads", "2",
                               "--out", str(out)])
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

    def test_vanishing_symbol_exit_code(self, runner, tmp_path):
        res = runner.invoke(main, ["toeplitz", "recip", "--coeffs", "1@0,-1@1",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


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
