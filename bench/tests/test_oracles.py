"""Each oracle accepts a correct output and flags a deliberately perturbed one."""

import dataclasses
import json
import types

import numpy as np
import pytest

import workloads
from offdiag import inversion, symbols
from offdiag.lattice import Window, generate


def test_suite_oracle_flags_a_failed_criterion(tmp_path):
    results = [types.SimpleNamespace(cid=c, passed=True, summary="") for c in workloads.CRITERIA]
    path = tmp_path / "suite_report.json"
    path.write_text(json.dumps({"criteria": [{"cid": c, "passed": True} for c in workloads.CRITERIA]}))
    assert workloads.check_suite(results, path) == []

    results[4] = types.SimpleNamespace(cid="C05", passed=False, summary="dense err 1")
    assert workloads.check_suite(results, path) == ["C05 failed: dense err 1"]
    assert workloads.check_suite(results[:-1], path)  # a criterion missing

    results[4].passed = True
    path.write_text(json.dumps({"criteria": [{"cid": "C01", "passed": False}]}))
    assert workloads.check_suite(results, path)  # the artifact disagrees


@pytest.mark.parametrize("left", [False, True])
def test_inversion_oracle_flags_a_perturbed_inverse(left):
    a = generate("toeplitz_from_coeffs", Window(1, 8), coeffs={0: 2.0, 1: 1.0})
    x, rep = (inversion.left_inverse if left else inversion.wiener_invert)(a, tol=workloads.TOL)
    dense = np.linalg.solve(a.data, np.eye(a.window.size))
    assert workloads.check_inversion("t", a.data, x.data, rep, dense, left=left) == []

    bad = x.data.copy()
    bad[3, 2] += 1e-7
    problems = workloads.check_inversion("t", a.data, bad, rep, dense, left=left)
    assert any("dense solve" in p for p in problems)
    assert any("XA-I" in p for p in problems)
    unconverged = dataclasses.replace(rep, converged=False)
    assert workloads.check_inversion("t", a.data, x.data, unconverged, dense, left=left)


def test_stability_oracle_flags_a_wrong_verdict_and_an_inverted_bracket():
    sym = symbols.parse_coeffs("2@0,1@1")
    rep = symbols.toeplitz_stability_criterion(sym, 2.0, radii=(8, 16), trials=5)
    assert workloads.check_stability("t", rep, "stable", 2) == []
    assert workloads.check_stability("t", rep, "degrading", 2)
    assert workloads.check_stability("t", rep, "stable", 3)

    flipped = dataclasses.replace(rep.brackets[1], verdict="inconclusive")
    assert workloads.check_stability(
        "t", dataclasses.replace(rep, brackets=(rep.brackets[0], flipped)), "stable", 2)
    inverted = dataclasses.replace(rep.brackets[0], lower=rep.brackets[0].upper * 2)
    assert workloads.check_stability(
        "t", dataclasses.replace(rep, brackets=(inverted, rep.brackets[1])), "stable", 2)
