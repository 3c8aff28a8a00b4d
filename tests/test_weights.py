import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import offdiag
from offdiag.lattice import Window, ring_counts
from offdiag.weights import (RadialForm, WeightMatrix, WeightValidationError,
                             check_submultiplicative, cross_norm,
                             default_companion, mpu_upper_bound,
                             theta_fit)

D1 = 1


def zeta(s, terms=2_000_000):
    return float(np.sum(np.arange(1, terms, dtype=np.float64) ** (-s)))


class TestEval:
    def test_trivial(self):
        u = WeightMatrix.trivial(D1)
        assert u.eval(5, -3) == 1.0

    def test_polynomial(self):
        u = WeightMatrix.polynomial(2.0, D1)
        assert u.eval(3, 0) == 16.0

    def test_subexponential(self):
        u = WeightMatrix.subexponential(0.5, 1.0, D1)
        assert u.eval(4, 0) == pytest.approx(math.e**2, rel=1e-15)

    def test_symmetry_and_floor(self):
        win = Window(2, 3)
        for u in (WeightMatrix.trivial(2), WeightMatrix.polynomial(1.5, 2),
                  WeightMatrix.subexponential(0.5, 0.5, 2), WeightMatrix.constant(3.0, 2)):
            g = u.grid(win)
            assert np.array_equal(g, g.T)
            assert np.all(g >= 1.0)

    def test_table_validation(self):
        win = Window(1, 1)
        ok = np.full((3, 3), 2.0)
        WeightMatrix.table(win, ok)
        bad = ok.copy()
        bad[0, 1] = 0.5
        with pytest.raises(WeightValidationError):
            WeightMatrix.table(win, bad)
        asym = ok.copy()
        asym[0, 1] = 3.0
        with pytest.raises(WeightValidationError):
            WeightMatrix.table(win, asym)

    def test_table_lookup_out_of_window(self):
        win = Window(1, 1)
        u = WeightMatrix.table(win, np.full((3, 3), 2.0))
        with pytest.raises(ValueError):
            u.eval(5, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            WeightMatrix.trivial(2).grid(Window(1, 3))

    @pytest.mark.parametrize("alpha, radius", [(700.0, 16), (120.0, 1000)])
    def test_grid_overflow_refused_without_warning(self, alpha, radius):
        # the largest radial value decides, and numpy does not warn on the way
        with pytest.raises(WeightValidationError, match="overflows"):
            WeightMatrix.polynomial(alpha, D1).grid(Window(1, radius))

    def test_grid_at_the_overflow_edge(self):
        # 2^1023 is finite at |i - j| = 1 and overflows at |i - j| = 3 (4^1023)
        u = WeightMatrix.polynomial(1023.0, D1)
        assert u.grid(Window(1, 0)).tolist() == [[1.0]]
        with pytest.raises(WeightValidationError, match="overflows"):
            u.grid(Window(1, 2))
        assert np.all(WeightMatrix.constant(1e308, D1).grid(Window(1, 2)) == 1e308)


class TestConstructors:
    @pytest.mark.parametrize("build", [
        lambda: WeightMatrix.polynomial(-1.0, D1),
        lambda: WeightMatrix.constant(0.5, D1),
        lambda: WeightMatrix.subexponential(0.0, 0.5, D1),
        lambda: WeightMatrix.subexponential(1.0, 0.5, D1),
        lambda: WeightMatrix.subexponential(0.5, 0.0, D1),
        lambda: WeightMatrix.subexponential(0.5, 1.5, D1),
        lambda: WeightMatrix.polynomial(math.inf, D1),
        lambda: WeightMatrix.polynomial(math.nan, D1),
        lambda: WeightMatrix.constant(math.inf, D1),
        lambda: WeightMatrix.constant(math.nan, D1),
        lambda: WeightMatrix.subexponential(math.nan, 0.5, D1),
        lambda: WeightMatrix.subexponential(0.5, math.nan, D1),
        lambda: WeightMatrix.table(Window(1, 1), np.full((3, 3), math.inf)),
        lambda: WeightMatrix.table(Window(1, 1), np.full((3, 3), math.nan)),
    ], ids=["polynomial-negative", "constant-below-one", "delta-zero", "delta-one",
            "tau-zero", "tau-above-one", "polynomial-inf", "polynomial-nan", "constant-inf",
            "constant-nan", "delta-nan", "tau-nan", "table-inf", "table-nan"])
    def test_refuses_out_of_range(self, build):
        with pytest.raises(WeightValidationError):
            build()

    def test_descriptor_and_form_are_stored(self):
        win = Window(1, 2)
        cases = [
            (WeightMatrix.trivial(D1), "trivial", RadialForm()),
            (WeightMatrix.polynomial(2, D1), "polynomial(2)", RadialForm(alpha=2.0)),
            (WeightMatrix.constant(4.0, D1), "constant(4)", RadialForm(scale=4.0)),
            (WeightMatrix.subexponential(0.5, 0.25, D1), "subexponential(0.5,0.25)",
             RadialForm(tau=0.25, delta=0.5)),
            (WeightMatrix.table(win, np.full((5, 5), 2.0)), "table(R=2)", None),
        ]
        for u, descriptor, radial in cases:
            assert u.descriptor == descriptor and u.radial == radial


class TestCompanions:
    def test_defaults(self):
        win = Window(2, 3)
        for u, expected in [
            (WeightMatrix.trivial(2), WeightMatrix.trivial(2)),
            (WeightMatrix.constant(3.0, 2), WeightMatrix.trivial(2)),
            (WeightMatrix.polynomial(2.0, 2), WeightMatrix.constant(4.0, 2)),
            (WeightMatrix.subexponential(0.5, 1.0, 2), WeightMatrix.subexponential(0.5, 0.5, 2)),
        ]:
            v = default_companion(u, 2.0)
            assert v.descriptor == expected.descriptor
            assert np.array_equal(v.grid(win), expected.grid(win))

    @pytest.mark.parametrize("alpha", [1024.0, 1100.0])
    def test_overflowing_companion_constant_refused(self, alpha):
        # 2.0 ** alpha raised OverflowError, an arithmetic failure, not a refusal
        with pytest.raises(WeightValidationError, match="overflows"):
            default_companion(WeightMatrix.polynomial(alpha, D1), 2.0)

    def test_companion_constant_below_the_edge(self):
        assert default_companion(WeightMatrix.polynomial(1023.5, D1), 2.0).radial.scale == 2.0**1023.5

    def test_table_needs_explicit(self):
        win = Window(1, 1)
        with pytest.raises(ValueError):
            default_companion(WeightMatrix.table(win, np.ones((3, 3))), 1.0)

    @pytest.mark.parametrize("u,p", [
        (WeightMatrix.trivial(D1), 1.0),
        (WeightMatrix.polynomial(2.0, D1), 2.0),
        (WeightMatrix.polynomial(1.0, D1), 1.0),
        (WeightMatrix.subexponential(0.5, 1.0, D1), 2.0),
        (WeightMatrix.constant(4.0, D1), 1.0),
    ])
    def test_default_companions_certify(self, u, p):
        v = default_companion(u, p)
        rep = check_submultiplicative(u, v, p, Window(1, 24))
        assert rep.holds and rep.exhaustive

    def test_subexponential_certifies_2d(self):
        u = WeightMatrix.subexponential(0.5, 1.0, 2)
        v = default_companion(u, 2.0)
        rep = check_submultiplicative(u, v, 2.0, Window(2, 4))
        assert rep.holds


class TestSubmultiplicative:
    def test_trivial_margin_one(self):
        u = v = WeightMatrix.trivial(D1)
        rep = check_submultiplicative(u, v, 1.0, Window(1, 8))
        assert rep.holds
        assert rep.worst_margin == 1.0
        assert rep.cp == 1.0

    def test_cp_poly_const_p2(self):
        # oracle: 4 sqrt(1 + 2 (zeta(4) - 1)) from the exact ring series
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        rep = check_submultiplicative(u, v, 2.0, Window(1, 64))
        assert rep.holds
        assert rep.cp == pytest.approx(4.0 * math.sqrt(1 + 2 * (zeta(4.0) - 1)), rel=1e-9)

    def test_cp_poly_const_p1(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        rep = check_submultiplicative(u, v, 1.0, Window(1, 16))
        assert rep.cp == 4.0  # sup of 4 (1+|k|)^{-2} at k = 0

    def test_sampled_path(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        rep = check_submultiplicative(u, v, 2.0, Window(1, 40), sample_budget=5_000, seed=3)
        assert not rep.exhaustive
        assert rep.triples_checked == 5_000
        assert rep.holds

    def test_divergent_cp(self):
        # companion growing faster than u: ratio tends to infinity
        u = WeightMatrix.trivial(D1)
        v = WeightMatrix.polynomial(1.0, D1)
        rep = check_submultiplicative(u, v, 2.0, Window(1, 8))
        assert math.isinf(rep.cp)

    def test_cp_monotone_in_v(self):
        u = WeightMatrix.polynomial(2.0, D1)
        win = Window(1, 16)
        c4 = cross_norm(u, WeightMatrix.constant(4.0, D1), 2.0, win).value
        c8 = cross_norm(u, WeightMatrix.constant(8.0, D1), 2.0, win).value
        assert c8 > c4
        # pointwise larger u gives smaller cross norm
        c_small_u = cross_norm(WeightMatrix.polynomial(1.0, D1),
                               WeightMatrix.constant(4.0, D1), 2.0, win).value
        assert c_small_u > c4

    def test_table_cross_norm_window_restricted(self):
        win = Window(1, 6)
        u = WeightMatrix.table(win, WeightMatrix.polynomial(2.0, D1).grid(win))
        v = WeightMatrix.constant(4.0, D1)
        val = cross_norm(u, v, 1.0, win).value
        assert val == 4.0


class TestThetaFit:
    def test_poly_const_certificate(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        fit = theta_fit(u, v, 2.0, 1, t_grid=np.geomspace(1, 1e6, 61))
        assert fit.satisfied and not fit.diverged
        assert abs(fit.theta - 0.4) < 0.1
        assert fit.certificate_holds()
        # certificate at t = 1: min_N(A_N + B_N) <= D
        assert fit.min_values[0] <= fit.D

    @pytest.mark.parametrize("u, v", [
        (WeightMatrix.polynomial(2.0, 2), WeightMatrix.constant(4.0, 2)),
        (WeightMatrix.polynomial(3.0, 2), WeightMatrix.polynomial(1.5, 2)),
        (WeightMatrix.subexponential(0.5, 0.6, 2), WeightMatrix.subexponential(0.5, 0.3, 2)),
    ], ids=["constant", "polynomial", "subexponential"])
    def test_a_series_matches_its_definition(self, u, v):
        # A_N = sum_{|k| <= N} sup_{|k| <= n <= N} v(n), summed ring by ring
        fit = theta_fit(u, v, 2.0, 2, n_max=40)
        vals = v.radial.value(np.arange(41))
        for n in range(1, 41):
            sups = np.maximum.accumulate(vals[n::-1])[::-1]
            assert fit.a_values[n - 1] == pytest.approx(np.sum(ring_counts(2, n) * sups),
                                                        rel=1e-14)

    def test_oracle_grid_minimization(self):
        # independent direct minimization of A_N + B_N t over a dense N grid
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        fit = theta_fit(u, v, 2.0, 1)
        ns = np.arange(1, 5001, dtype=np.float64)
        a_vals = 4.0 * (2.0 * ns + 1.0)
        ms = np.arange(0, 300_000, dtype=np.float64)
        rings = np.where(ms == 0, 1.0, 2.0)
        terms = rings * (4.0 * (1.0 + ms) ** -2.0) ** 2.0
        suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
        b_vals = np.sqrt(suffix[((ns.astype(int) + 1) // 2)])
        for t in (1.0, 100.0, 1e6):
            oracle = float(np.min(a_vals + b_vals * t))
            k = int(np.argmin(np.abs(fit.t_grid - t)))
            assert fit.min_values[k] == pytest.approx(oracle, rel=1e-6)

    def test_trivial_pair_not_satisfied(self):
        fit = theta_fit(WeightMatrix.trivial(D1), WeightMatrix.trivial(D1), 1.0, 1)
        assert not fit.satisfied
        assert np.all(fit.b_values == 1.0)
        assert fit.theta > 0.98

    def test_monotone_series(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        fit = theta_fit(u, v, 2.0, 1)
        assert np.all(np.diff(fit.a_values) >= 0)
        assert np.all(np.diff(fit.b_values) <= 1e-15)

    def test_divergent_reported(self):
        fit = theta_fit(WeightMatrix.trivial(D1), WeightMatrix.polynomial(1.0, D1), 2.0, 1)
        assert fit.diverged and not fit.satisfied

    def test_validation(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        with pytest.raises(ValueError):
            theta_fit(u, v, 2.0, 1, n_max=1)
        with pytest.raises(ValueError):
            theta_fit(u, v, 2.0, 1, t_grid=np.array([0.5, 2.0]))

    @pytest.mark.parametrize("t_grid", [[], [10.0], [3.0, 3.0]],
                             ids=["empty", "one-point", "one-distinct-point"])
    def test_t_grid_without_two_points_rejected(self, t_grid):
        # one point cannot fit a slope: refused before the least-squares fit
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        with pytest.raises(ValueError, match="2 distinct points"):
            theta_fit(u, v, 2.0, 1, t_grid=np.array(t_grid))

    @pytest.mark.parametrize("v, d, n_max", [
        (WeightMatrix.polynomial(1000.0, 1), 1, 64),
        (WeightMatrix.constant(1e300, 3), 3, 2048),
    ], ids=["polynomial-v", "constant-v-d3"])
    def test_overflowing_a_n_refused(self, v, d, n_max):
        # theta=nan D=inf with an overflow warning before; filterwarnings = error
        u = WeightMatrix.polynomial(2.0, d)
        with pytest.raises(ValueError, match="overflows"):
            theta_fit(u, v, 2.0, d, n_max=n_max)

    def test_subexponential_pair(self):
        u = WeightMatrix.subexponential(0.5, 1.0, D1)
        v = default_companion(u, 2.0)
        fit = theta_fit(u, v, 2.0, 1, n_max=512, t_grid=np.geomspace(1, 1e5, 41))
        assert fit.satisfied
        assert fit.certificate_holds()


class TestMpu:
    def test_trivial(self):
        val = mpu_upper_bound(WeightMatrix.trivial(D1), 1.0,
                              [WeightMatrix.trivial(D1)], Window(1, 8))
        assert val == 1.0

    def test_picks_smaller_candidate(self):
        u = WeightMatrix.polynomial(2.0, D1)
        win = Window(1, 16)
        both = mpu_upper_bound(u, 2.0, [WeightMatrix.constant(4.0, D1),
                                        WeightMatrix.constant(8.0, D1)], win)
        only4 = mpu_upper_bound(u, 2.0, [WeightMatrix.constant(4.0, D1)], win)
        assert both == only4

    def test_empty_list(self):
        with pytest.raises(ValueError):
            mpu_upper_bound(WeightMatrix.trivial(D1), 1.0, [], Window(1, 4))

    def test_failing_candidate_rejected(self):
        # constant(1) = trivial is not a companion for polynomial(2):
        # 16 = u(3,0) > u(3,1) v(1,0) + v(3,1) u(1,0) = 4 + 4
        u = WeightMatrix.polynomial(2.0, D1)
        with pytest.raises(ValueError):
            mpu_upper_bound(u, 1.0, [WeightMatrix.trivial(D1)], Window(1, 8))


class TestRadialForm:
    def test_tail_sup_monotone_form(self):
        r = RadialForm(scale=4.0, alpha=-2.0)
        assert r.tail_sup(np.array([0, 3]))[1] == pytest.approx(4.0 / 16.0)

    def test_tail_sup_mixed_unimodal(self):
        # (1+n)^2 e^{-n^{1/2}} peaks around n = 16
        r = RadialForm(scale=1.0, alpha=2.0, tau=-1.0, delta=0.5)
        full = r.tail_sup(np.array([0]))[0]
        vals = r.value(np.arange(0, 200))
        assert full == pytest.approx(vals.max(), rel=1e-12)
        late = r.tail_sup(np.array([100]))[0]
        assert late == pytest.approx(r.value(100), rel=1e-12)

    @pytest.mark.parametrize("form", [
        RadialForm(alpha=1.0, tau=-0.05, delta=0.5),  # peak near n = 1600
        RadialForm(alpha=1.0, tau=-0.01, delta=0.5),  # peak near n = 40000
        RadialForm(scale=0.5, alpha=1.0, tau=-0.5, delta=0.3),  # peak near n = 560
        RadialForm(alpha=2.0, tau=-0.1, delta=1.0),  # rises from n = 0 to n = 19
    ], ids=["peak-1600", "peak-40000", "delta-0.3", "delta-1"])
    def test_tail_sup_mixed_covers_every_tail(self, form):
        # no sampling grid: off-grid m past 8192 and a peak past it are read exactly
        ms = np.array([0, 100, 5000, 9000, 20000, 150000, 200000])
        got = form.tail_sup(ms)
        for m, sup in zip(ms, got):
            brute = form.value(np.arange(m, m + 400_001)).max()
            assert sup >= brute
            assert sup == pytest.approx(brute, rel=1e-15)

    def test_tail_sup_mixed_needs_delta_at_most_one(self):
        with pytest.raises(ValueError, match="delta"):
            RadialForm(alpha=1.0, tau=-1.0, delta=2.0).tail_sup(np.array([0]))

    def test_mixed_cross_norm_sums_exact_suprema(self):
        # v/u = (1+n)^2 e^{-0.3 n^{1/2}}: every series term is the exact tail sup
        u, v = WeightMatrix.subexponential(0.5, 0.3, 2), WeightMatrix.polynomial(2.0, 2)
        sv = cross_norm(u, v, 2.0)
        ratio = v.radial.ratio(u.radial)
        vals = ratio.value(np.arange(sv.terms + 400_000))
        sups = np.maximum.accumulate(vals[::-1])[::-1][: sv.terms]
        exact = float(np.sum(ring_counts(2, sv.terms - 1) * sups**2))
        assert sv.partial == pytest.approx(exact, rel=1e-14)

    def test_divergent(self):
        r = RadialForm(scale=1.0, alpha=1.0)
        assert math.isinf(r.tail_sup(np.array([5]))[0])


_COLD_PROCESS = """
import importlib, json, pkgutil, sys
import offdiag
for mod in pkgutil.iter_modules(offdiag.__path__):
    importlib.import_module("offdiag." + mod.name)
from offdiag import suite
from offdiag.weights import WeightMatrix, cross_norm, default_companion

scipy_of = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
passed = all(r.passed for r in suite.run_all(seed=1, quick=True, out_dir=sys.argv[1]))
after_suite = scipy_of()
values = {}
for d in (1, 2):
    u = WeightMatrix.subexponential(0.5, 1.0, d)
    values[d] = float(cross_norm(u, default_companion(u, 2.0), 2.0).value)
print(json.dumps({"passed": passed, "after_suite": after_suite, "values": values,
                  "special_loaded": "scipy.special" in sys.modules}))
"""


@pytest.fixture(scope="module")
def cold_process(tmp_path_factory):
    """One fresh interpreter: every offdiag module, a quick suite, then a subexponential tail."""
    env = dict(os.environ, PYTHONPATH=str(Path(offdiag.__file__).parents[1]))
    out_dir = str(tmp_path_factory.mktemp("suite"))
    out = subprocess.run([sys.executable, "-c", _COLD_PROCESS, out_dir],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestScipyIsLazy:
    def test_package_and_suite_never_import_scipy(self, cold_process):
        assert cold_process["passed"]
        assert cold_process["after_suite"] == []

    def test_subexponential_tail_loads_scipy_and_keeps_values(self, cold_process):
        # pinned: importing scipy on first use must not move a bit of the tail
        assert cold_process["values"] == {"1": 2.0834619353212767, "2": 9.824883965332074}
        assert cold_process["special_loaded"]
