"""Exit criteria, run at full scale with the pinned tolerances.

Each test executes one registry criterion and prints its pass/fail line; the
registry (offdiag.suite) is the single place tolerances live, shared with
the `offdiag suite` CLI verb.
"""

import numpy as np
import pytest

from offdiag import muckenhoupt, stability, weights
from offdiag.suite import CRITERIA, run_criterion

SEED = 42


@pytest.mark.parametrize("cid,fn", CRITERIA, ids=[cid for cid, _ in CRITERIA])
def test_acceptance(cid, fn):
    result = fn(SEED, False)
    line = (f"[{'PASS' if result.passed else 'FAIL'}] {result.cid} {result.title}: "
            f"{result.summary} ({result.elapsed:.2f}s)")
    print(line)
    assert result.passed, line


def test_registry_is_complete():
    assert [cid for cid, _ in CRITERIA] == [f"C{k:02d}" for k in range(1, 15)]
    assert run_criterion("C03", seed=SEED, quick=True).passed


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_weight_constants_once_per_run(monkeypatch, quick):
    # A_q(w) and C_p(v, u) depend on the weights only: C13 scans each of its two
    # weights once and C04 sums one C_p series per (d, weight pair), for any draw
    # count, and each constant handed on is the one the callee would compute
    aq_bound, cross_norm = muckenhoupt.aq_bound, weights.cross_norm
    diagnostic, check = stability.commutator_diagnostic, stability.boundedness_check
    calls = {"aq": 0, "cp": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def checked_diagnostic(a, n_scale, n, n_prime, q, w, c, *, aq):
        assert aq == aq_bound(w, q, a.window.side).bound
        return diagnostic(a, n_scale, n, n_prime, q, w, c, aq=aq)

    def checked_check(a, q, w, p, u, *, v, cp, **kwargs):
        assert cp == cross_norm(u, v, p, a.window).value
        return check(a, q, w, p, u, v=v, cp=cp, **kwargs)

    for module in (muckenhoupt, stability):
        monkeypatch.setattr(module, "aq_bound", counted("aq", aq_bound))
    for module in (weights, stability):
        monkeypatch.setattr(module, "cross_norm", counted("cp", cross_norm))
    monkeypatch.setattr(stability, "commutator_diagnostic", checked_diagnostic)
    monkeypatch.setattr(stability, "boundedness_check", checked_check)
    assert run_criterion("C13", seed=SEED, quick=quick).passed
    assert calls["aq"] == 2
    assert run_criterion("C04", seed=SEED, quick=quick).passed
    assert calls["cp"] <= 4


def test_c02_weights_each_matrix_once_per_draw(monkeypatch):
    # a draw is one (pair, weight): its report and p = inf checks share a's pass,
    # so 6 grid calls (a, a + b, b, alpha a, a*, dom) where there were 16
    calls = []
    grid = weights.WeightMatrix.grid
    monkeypatch.setattr(weights.WeightMatrix, "grid",
                        lambda self, win: calls.append(win) or grid(self, win))
    result = run_criterion("C02", seed=SEED, quick=True)
    assert result.passed
    assert len(calls) == 6 * 2 * result.details["pairs"]


def test_c08_shares_sigma_pairs_within_each_ladder(monkeypatch):
    # radii 32 .. 256 and their halves: 5 windows per operator, 16 SVDs before
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **k: calls.append(m.shape) or svd(m, **k))
    assert run_criterion("C08", seed=SEED, quick=False).passed
    assert len(calls) == 10
    assert stability._SIGMA_PAIRS.get() is None
