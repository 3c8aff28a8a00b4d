"""Exit criteria, run at full scale with the pinned tolerances.

Each test executes one registry criterion through the runner, which times it
and applies its wall-clock limit, and prints its pass/fail line; the registry
(offdiag.suite) is the single place tolerances live, shared with the
`offdiag suite` CLI verb.
"""

import sys

import numpy as np
import pytest

from offdiag import lattice, muckenhoupt, suite, weights
from offdiag.suite import CRITERIA, run_criterion

SEED = 42


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA])
def test_acceptance(cid):
    result = run_criterion(cid, seed=SEED, quick=False)
    line = (f"[{'PASS' if result.passed else 'FAIL'}] {result.cid} {result.title}: "
            f"{result.summary} ({result.elapsed:.2f}s)")
    print(line)
    assert result.passed, line


def test_registry_is_complete():
    assert [cid for cid, _ in CRITERIA] == [f"C{k:02d}" for k in range(1, 15)]
    assert run_criterion("C03", seed=SEED, quick=True).passed


def test_runner_applies_the_wall_clock_limit(monkeypatch):
    # the runner's clock alone decides the limit: C05 made to read 11 s against
    # its 10 s fails with the same numbers, and C03, which has no limit, passes
    on_time = run_criterion("C05", seed=SEED)
    assert on_time.passed
    ticks = iter([0.0, 11.0, 0.0, 1e6])
    monkeypatch.setattr(suite, "_clock", lambda: next(ticks))
    late = run_criterion("C05", seed=SEED)
    assert late.elapsed == 11.0
    assert not late.passed
    assert (late.summary, late.details) == (on_time.summary, on_time.details)
    assert run_criterion("C03", seed=SEED).passed


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_weight_constants_once_per_run(monkeypatch, quick):
    # A_q(w) and C_p(v, u) depend on the weights only, so a criterion makes each
    # once per key in the runner's "constants" block, for any draw count: C13
    # scans its two weights, and C01 and C04 sum one C_p series per (d, weight
    # pair).  Each function is rebound wherever a module holds it, as a traced
    # run does, so the counts are the work done.
    calls = {"aq_bound": 0, "cross_norm": 0}
    for fn in (muckenhoupt.aq_bound, weights.cross_norm):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("offdiag") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    assert run_criterion("C13", seed=SEED, quick=quick).passed
    assert calls["aq_bound"] == 2
    for cid in ("C01", "C04"):
        calls["cross_norm"] = 0
        assert run_criterion(cid, seed=SEED, quick=quick).passed
        assert 1 <= calls["cross_norm"] <= 4
    assert lattice._SHARED.get() is None


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
    assert lattice._SHARED.get() is None
