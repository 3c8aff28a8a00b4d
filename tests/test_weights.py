import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offdiag
from offdiag import weights
from offdiag.lattice import Window, generate, ring_counts
from offdiag.muckenhoupt import WeightSequence
from offdiag.norms import product_inequality_check
from offdiag.stability import boundedness_check
from offdiag.weights import (RadialForm, WeightMatrix, WeightValidationError, cross_norm,
                             default_companion, theta_fit)

D1 = 1


def zeta(s, terms=2_000_000):
    return float(np.sum(np.arange(1, terms, dtype=np.float64) ** (-s)))


# C11's pair, a subexponential pair and a d = 2 polynomial pair, each fitted at p = 2
_THETA_PAIRS = {
    "C11": (WeightMatrix.polynomial(2.0, 1), WeightMatrix.constant(4.0, 1), 1),
    "subexponential": (WeightMatrix.subexponential(0.5, 1.0, 1),
                       WeightMatrix.subexponential(0.5, 0.5, 1), 1),
    "polynomial-d2": (WeightMatrix.polynomial(3.0, 2), WeightMatrix.polynomial(1.5, 2), 2),
}


@functools.cache
def _pair_fit(pair, points):
    u, v, d = _THETA_PAIRS[pair]
    return theta_fit(u, v, 2.0, d, n_max=512, t_grid=np.geomspace(1.0, 1e6, points))


def theta_margins(fit, t):
    """D t^theta - min_N(A_N + B_N t) at each t, from the fit's own series."""
    t = np.asarray(t, dtype=np.float64)
    f = np.empty_like(t)
    for k in range(0, t.size, 1000):  # (n_max, 1000) at a time
        chunk = t[k:k + 1000]
        f[k:k + 1000] = np.min(fit.a_values[:, None] + fit.b_values[:, None] * chunk, axis=0)
    return fit.D * t**fit.theta - f


def submultiplicative_margin(u, v, window):
    """min over every triple (i, k, j) of the window of u(i,k) v(k,j) + v(i,k) u(k,j) - u(i,j)."""
    ug, vg = u.grid(window), v.grid(window)
    margin = (ug[:, :, None] * vg[None, :, :] + vg[:, :, None] * ug[None, :, :]
              - ug[:, None, :])
    return float(margin.min())


class TestEval:
    @staticmethod
    def at(u, win, i, j):
        return u.grid(win)[win.flat(i), win.flat(j)]

    def test_trivial(self):
        u = WeightMatrix.trivial(D1)
        assert self.at(u, Window(1, 5), 5, -3) == 1.0

    def test_polynomial(self):
        u = WeightMatrix.polynomial(2.0, D1)
        assert self.at(u, Window(1, 3), 3, 0) == 16.0

    def test_subexponential(self):
        u = WeightMatrix.subexponential(0.5, 1.0, D1)
        assert self.at(u, Window(1, 4), 4, 0) == pytest.approx(math.e**2, rel=1e-15)

    def test_symmetry_and_floor(self):
        win = Window(2, 3)
        for u in (WeightMatrix.trivial(2), WeightMatrix.polynomial(1.5, 2),
                  WeightMatrix.subexponential(0.5, 0.5, 2), WeightMatrix.constant(3.0, 2)):
            g = u.grid(win)
            assert np.array_equal(g, g.T)
            assert np.all(g >= 1.0)

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
    ], ids=["polynomial-negative", "constant-below-one", "delta-zero", "delta-one",
            "tau-zero", "tau-above-one", "polynomial-inf", "polynomial-nan", "constant-inf",
            "constant-nan", "delta-nan", "tau-nan"])
    def test_refuses_out_of_range(self, build):
        with pytest.raises(WeightValidationError):
            build()

    def test_descriptor_and_form_are_stored(self):
        cases = [
            (WeightMatrix.trivial(D1), "trivial", RadialForm()),
            (WeightMatrix.polynomial(2, D1), "polynomial(2)", RadialForm(alpha=2.0)),
            (WeightMatrix.constant(4.0, D1), "constant(4)", RadialForm(scale=4.0)),
            (WeightMatrix.subexponential(0.5, 0.25, D1), "subexponential(0.5,0.25)",
             RadialForm(tau=0.25, delta=0.5)),
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

    @pytest.mark.parametrize("u,p", [
        (WeightMatrix.trivial(D1), 1.0),
        (WeightMatrix.polynomial(2.0, D1), 2.0),
        (WeightMatrix.polynomial(1.0, D1), 1.0),
        (WeightMatrix.subexponential(0.5, 1.0, D1), 2.0),
        (WeightMatrix.constant(4.0, D1), 1.0),
    ])
    def test_default_companions_certify(self, u, p):
        v = default_companion(u, p)
        assert submultiplicative_margin(u, v, Window(1, 24)) >= 0.0

    def test_subexponential_certifies_2d(self):
        u = WeightMatrix.subexponential(0.5, 1.0, 2)
        v = default_companion(u, 2.0)
        assert submultiplicative_margin(u, v, Window(2, 4)) >= 0.0

    def test_margin_sees_a_failing_companion(self):
        # the trivial v is no companion of u = (1+n)^2: the margin (1+a)^2 + (1+b)^2 - (1+a+b)^2
        # = 1 - 2ab is least at i = -R, k = 0, j = R (a = b = R)
        u, v = WeightMatrix.polynomial(2.0, D1), WeightMatrix.trivial(D1)
        assert submultiplicative_margin(u, v, Window(1, 40)) == 1.0 - 2.0 * 40**2


class TestSubmultiplicative:
    """C_p(v, u), the constant of the algebra form of the product inequality."""

    def test_trivial_cp_one(self):
        u = v = WeightMatrix.trivial(D1)
        assert cross_norm(u, v, 1.0).value == 1.0

    def test_cp_poly_const_p2(self):
        # oracle: 4 sqrt(1 + 2 (zeta(4) - 1)) from the exact ring series
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        cp = cross_norm(u, v, 2.0).value
        assert cp == pytest.approx(4.0 * math.sqrt(1 + 2 * (zeta(4.0) - 1)), rel=1e-9)

    def test_cp_poly_const_p1(self):
        u = WeightMatrix.polynomial(2.0, D1)
        v = WeightMatrix.constant(4.0, D1)
        assert cross_norm(u, v, 1.0).value == 4.0  # sup of 4 (1+|k|)^{-2} at k = 0

    def test_divergent_cp(self):
        # companion growing faster than u: ratio tends to infinity
        u = WeightMatrix.trivial(D1)
        v = WeightMatrix.polynomial(1.0, D1)
        assert math.isinf(cross_norm(u, v, 2.0).value)

    def test_cp_monotone_in_v(self):
        u = WeightMatrix.polynomial(2.0, D1)
        win = Window(1, 16)
        c4 = cross_norm(u, WeightMatrix.constant(4.0, D1), 2.0).value
        c8 = cross_norm(u, WeightMatrix.constant(8.0, D1), 2.0).value
        assert c8 > c4
        # pointwise larger u gives smaller cross norm
        c_small_u = cross_norm(WeightMatrix.polynomial(1.0, D1),
                               WeightMatrix.constant(4.0, D1), 2.0).value
        assert c_small_u > c4

    @pytest.mark.parametrize("d", [1, 2])
    def test_incompatible_scales_refused(self, d):
        # v/u = exp(n^{1/4} - n^{1/2}) is no RadialForm: a window sum would only
        # bound C_p from below, so every path to C_p refuses the pair as theta_fit does
        u = WeightMatrix.subexponential(0.5, 1.0, d)
        v = WeightMatrix.subexponential(0.25, 1.0, d)
        with pytest.raises(ValueError, match="incompatible exponential scales"):
            v.radial.ratio(u.radial)
        win = Window(d, 3)
        a = generate("identity", win)
        for call in (lambda: cross_norm(u, v, 2.0),
                     lambda: product_inequality_check(a, a, 2.0, u, v),
                     lambda: boundedness_check(a, 2.0, WeightSequence.trivial(win), 2.0, u, v=v),
                     lambda: theta_fit(u, v, 2.0, d, n_max=8)):
            with pytest.raises(ValueError, match="incompatible exponential scales in v/u"):
                call()


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

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_grid_order_does_not_change_the_fit(self, order):
        # the top decade was read off the last point: the reversed grid gave
        # theta 0.43043, D 13.623 for theta 0.40188, D 16.145
        u, v = WeightMatrix.polynomial(2.0, D1), WeightMatrix.constant(4.0, D1)
        t = np.geomspace(1.0, 1e6, 61)
        perm = (slice(None, None, -1) if order == "reversed"  # a strided view
                else np.random.default_rng(3).permutation(61))
        want, got = theta_fit(u, v, 2.0, 1, t_grid=t), theta_fit(u, v, 2.0, 1, t_grid=t[perm])
        assert (got.theta, got.D, got.satisfied) == (want.theta, want.D, want.satisfied)
        assert np.array_equal(got.min_values, want.min_values[perm])
        assert got.certificate_holds()

    @pytest.mark.parametrize("t_grid", [[1.0, 1e6, 1e6], [1.0, 2.0, 1e6, 1e6]])
    def test_repeated_points_do_not_change_the_fit(self, t_grid):
        # the top decade held only copies of 1e6: polyfit warned RankWarning
        # on two equal abscissae; the fit falls back to the two largest distinct t
        u, v = WeightMatrix.polynomial(2.0, D1), WeightMatrix.constant(4.0, D1)
        want = theta_fit(u, v, 2.0, 1, t_grid=np.unique(t_grid))
        got = theta_fit(u, v, 2.0, 1, t_grid=t_grid)
        assert (got.theta, got.D, got.satisfied) == (want.theta, want.D, want.satisfied)
        assert np.array_equal(got.t_grid, t_grid)

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
        # a non-finite point failed inside LAPACK's least-squares fit before
        for top in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"t_grid must lie in \[1, inf\)"):
                theta_fit(u, v, 2.0, 1, t_grid=np.array([2.0, top]))

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

    @given(st.sampled_from(sorted(_THETA_PAIRS)), st.sampled_from([61, 11]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_certificate_holds_between_grid_points(self, pair, points, data):
        # D held at the grid points alone: C11's pair failed at 1,127 of 200,001
        # geometric points of [1, 1e6], worst margin -0.0296 near t = 2.95e5
        fit = _pair_fit(pair, points)
        k = data.draw(st.integers(0, points - 2))
        frac = data.draw(st.floats(0.0, 1.0))
        t_lo, t_hi = fit.t_grid[k], fit.t_grid[k + 1]
        t = min(t_lo * (t_hi / t_lo) ** frac, t_hi)
        assert theta_margins(fit, [t])[0] >= 0.0

    def test_c11_certificate_holds_on_a_fine_grid(self):
        fit = _pair_fit("C11", 61)
        margins = theta_margins(fit, np.geomspace(1.0, 1e6, 200_001))
        assert margins.min() > 4.0  # 4.09; -0.0296 when D held at the grid points alone

    def test_d_widens_by_the_largest_gap(self):
        # the widest gap of the distinct t sets the factor, whatever their order or repeats
        u, v = WeightMatrix.polynomial(2.0, D1), WeightMatrix.constant(4.0, D1)
        t = np.array([1.0, 2.0, 2.0, 100.0, 1e3, 1e4, 10.0])
        fit = theta_fit(u, v, 2.0, 1, t_grid=t)
        least = float(np.max(fit.min_values / t**fit.theta))
        assert fit.D == least * 10.0**fit.theta


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


def _upper_gamma(a, x):
    """Gamma(a, x) = e^{-x} int_0^inf e^{-s} (x + s)^{a-1} ds by 80-point Gauss-Laguerre."""
    s, w = np.polynomial.laguerre.laggauss(80)
    return math.exp(-x) * float(np.sum(w * (x + s) ** (a - 1.0)))


# (cross_norm value, theta_fit D, theta, b_tail_bound) of subexponential(delta, 1)
# against its default companion at p = 2, theta_fit with n_max = 256
_EXP_TAIL_PINS = {
    (0.3, 1): (4.354727951863636, 11.534184883113832, 0.9881252851852877, 0.03596432209388249),
    (0.3, 2): (101.85714317717436, 164.2619481386726, 0.980188274083867, 884.0749657118195),
    (0.9, 1): (1.5154257664453148, 7.1316535546390325, 0.6894321229525213, 0.0),
    (0.9, 2): (3.210407326661277, 21.37145710777549, 0.772436418163722, 0.0),
}


class TestIncompleteGammaTail:
    """A non-integer 1/delta sends the subexponential tail through Gamma(a, x)."""

    @pytest.mark.parametrize("delta, d", sorted(_EXP_TAIL_PINS))
    def test_values_pinned(self, delta, d):
        u = WeightMatrix.subexponential(delta, 1.0, d)
        v = default_companion(u, 2.0)
        fit = theta_fit(u, v, 2.0, d, n_max=256)
        got = (cross_norm(u, v, 2.0).value, fit.D, fit.theta, fit.b_tail_bound)
        assert got == pytest.approx(_EXP_TAIL_PINS[delta, d], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("delta, d", sorted(_EXP_TAIL_PINS))
    def test_tail_against_quadrature(self, delta, d):
        # v/u = e^{-n^delta / 2}; at p' = 2 the tail past m_end is bounded by
        # 2d 3^{d-1} K (Gamma(a, lam m_end^delta) / (delta lam^a) + e^{-2 lam m_end^delta})
        # with a = 1/delta, lam = 1/2 and K the tail sup of e^{-lam n^delta}
        u = WeightMatrix.subexponential(delta, 1.0, d)
        v = default_companion(u, 2.0)
        a, lam = 1.0 / delta, 0.5
        sv = cross_norm(u, v, 2.0)
        fit = theta_fit(u, v, 2.0, d, n_max=256)
        for tail, m_end in ((sv.tail_bound, sv.terms - 1), (fit.b_tail_bound, 4096)):
            x = lam * m_end**delta
            k_sup = float(RadialForm(alpha=d - 1.0, tau=-lam, delta=delta)
                          .tail_sup(np.array([m_end]))[0])
            want = 2 * d * 3 ** (d - 1) * k_sup * (
                _upper_gamma(a, x) / (delta * lam**a) + math.exp(-2.0 * lam * m_end**delta))
            assert tail == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("delta", [0.05, 0.25, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("f", [0.25, 0.9, 1.0, 1.1, 4.0])
    def test_upper_gamma_against_quadrature(self, delta, f):
        # x = f (a + 1): f < 1 takes Gamma(a) minus the series, f >= 1 the continued fraction
        a = 1.0 / delta
        x = f * (a + 1.0)
        assert weights._upper_gamma(a, x) == pytest.approx(_upper_gamma(a, x), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("delta", [0.005, 0.001])
    def test_overflowing_tail_reads_diverged(self, delta):
        # Gamma(1/delta) overflows: the tail bound is inf, not an OverflowError
        assert weights._upper_gamma(1.0 / delta, 0.5) == math.inf
        assert weights._upper_gamma(1.0 / delta, 1.0 / delta + 1.0) == math.inf  # x^a e^{-x}
        u = WeightMatrix.subexponential(delta, 1.0, 1)
        v = default_companion(u, 2.0)
        sv, fit = cross_norm(u, v, 2.0), theta_fit(u, v, 2.0, 1, n_max=64)
        assert sv.diverged and sv.value == math.inf
        assert fit.diverged and fit.D == math.inf and fit.b_tail_bound == math.inf

    @pytest.mark.parametrize("delta, tau", [(0.0005, 1.0), (0.01, 0.001)])
    def test_overflowing_lambda_power_reads_diverged(self, delta, tau):
        # lam^{-1/delta} past the largest double raised OverflowError (exit 2 from thetafit)
        u = WeightMatrix.subexponential(delta, tau, 1)
        fit = theta_fit(u, default_companion(u, 2.0), 2.0, 1, n_max=64)
        assert fit.diverged and fit.b_tail_bound == math.inf


_COLD_PROCESS = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import importlib, json, pkgutil
import offdiag
for mod in pkgutil.iter_modules(offdiag.__path__):
    importlib.import_module("offdiag." + mod.name)
from click.testing import CliRunner
from offdiag import suite
from offdiag.cli import main
from offdiag.weights import WeightMatrix, cross_norm, default_companion, theta_fit

passed = all(r.passed for r in suite.run_all(seed=1, quick=True, out_dir=sys.argv[1]))
values = {}
for delta in (0.3, 0.5):
    for d in (1, 2):
        u = WeightMatrix.subexponential(delta, 1.0, d)
        v = default_companion(u, 2.0)
        fit = theta_fit(u, v, 2.0, d, n_max=256)
        values[f"{delta},{d}"] = [cross_norm(u, v, 2.0).value, fit.D, fit.theta,
                                  fit.b_tail_bound]
cli = CliRunner().invoke(main, ["thetafit", "--u", "subexponential:0.3,1", "--p", "2",
                                "--out", sys.argv[2]])
print(json.dumps({"passed": passed, "values": values,
                  "cli_exit": cli.exit_code, "cli_output": cli.output}))
"""


@pytest.fixture(scope="module")
def cold_process(tmp_path_factory):
    """One fresh interpreter in which scipy cannot be imported: every offdiag
    module, a quick suite, the subexponential tails and a `thetafit` run."""
    env = dict(os.environ, PYTHONPATH=str(Path(offdiag.__file__).parents[1]))
    out_dirs = [str(tmp_path_factory.mktemp(name)) for name in ("suite", "thetafit")]
    out = subprocess.run([sys.executable, "-c", _COLD_PROCESS, *out_dirs],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestRunsWithoutScipy:
    def test_package_and_suite_run_without_scipy(self, cold_process):
        assert cold_process["passed"]

    def test_subexponential_tails_keep_values(self, cold_process):
        values = cold_process["values"]
        # pinned bit for bit: the delta = 1/2 cross-norms, whose tail takes Gamma(2, x)
        assert (values["0.5,1"][0], values["0.5,2"][0]) == (2.0834619353212767, 9.824883965332074)
        for d in (1, 2):
            assert values[f"0.3,{d}"] == pytest.approx(_EXP_TAIL_PINS[0.3, d], rel=1e-12, abs=0.0)
            u = WeightMatrix.subexponential(0.5, 1.0, d)
            v = default_companion(u, 2.0)
            fit = theta_fit(u, v, 2.0, d, n_max=256)
            assert values[f"0.5,{d}"][1:] == [fit.D, fit.theta, fit.b_tail_bound]

    def test_thetafit_runs_without_scipy(self, cold_process):
        assert cold_process["cli_exit"] == 0
        assert "theta=" in cold_process["cli_output"]
