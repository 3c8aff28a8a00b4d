import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag.lattice import LatticeSequence, Window
from offdiag.muckenhoupt import (WeightSequence, aq_bound,
                                 aq_characterization_check, maximal,
                                 weighted_norm)


def cube_aq(cube, q):
    """The A_q quantity of one cube of weight values, evaluated directly."""
    if q > 1:
        return cube.mean() * (cube ** (-1.0 / (q - 1.0))).mean() ** (q - 1.0)
    return cube.mean() / cube.min()


def brute_aq(w, q, n_cap):
    """Independent oracle: direct loop over every admissible cube."""
    win = w.window
    d, side = win.d, win.side
    vals = w.values.reshape((side,) * d)
    best = -math.inf
    for n in range(1, min(n_cap, side) + 1):
        for anchor in np.ndindex(*((side - n + 1,) * d)):
            sl = tuple(slice(a, a + n) for a in anchor)
            best = max(best, cube_aq(vals[sl], q))
    return best


def brute_maximal(c):
    win = c.window
    d, r = win.d, win.radius
    mag = np.abs(c.data)
    out = np.zeros(win.size)
    for pos, i in enumerate(win.indices):
        best = 0.0
        dist = np.abs(win.indices - i).max(axis=1)
        for n in range(0, 2 * r + 1):
            best = max(best, mag[dist <= n].sum() / (2 * n + 1) ** d)
        out[pos] = best
    return out


def spike_weight(win, value=4.0):
    vals = np.ones(win.size)
    vals[win.flat((0,) * win.d)] = value
    return WeightSequence.table(win, vals)


class TestWeightSequence:
    @pytest.mark.parametrize("d, r", [(1, 512), (2, 24), (3, 6)])
    def test_closed_forms_match_their_formulas(self, d, r):
        # the closed forms as written out before RadialForm evaluated them
        win = Window(d, r)
        sup = np.abs(win.indices).max(axis=1)
        assert np.array_equal(WeightSequence.trivial(win).values, np.ones(win.size))
        for alpha in (-1.5, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.7):
            w = WeightSequence.power(win, alpha)
            assert w.values.tobytes() == ((1.0 + sup) ** alpha).tobytes()
            assert w.descriptor == f"power({alpha:g})"
            pts = np.array([(r + 3,) * d, (-r - 7,) + (0,) * (d - 1)])
            far = (1.0 + np.abs(pts).max(axis=1)) ** alpha
            assert w.extended_values(pts).tobytes() == far.tobytes()
            sub = w.restrict(Window(d, r // 2))
            assert sub.values.tobytes() == w.values[win.flat(sub.window.indices)].tobytes()

    def test_table_restricts_to_a_table(self):
        win = Window(1, 3)
        w = spike_weight(win).restrict(Window(1, 1))
        assert w.descriptor == "table(R=1)" and w.radial is None
        assert np.array_equal(w.values, [1.0, 4.0, 1.0])

    @pytest.mark.parametrize("build", [
        lambda win: WeightSequence.power(win, math.nan),
        lambda win: WeightSequence.power(win, math.inf),
        lambda win: WeightSequence.power(win, -math.inf),
        lambda win: WeightSequence.power(win, 1e308),  # overflows past the origin
        lambda win: WeightSequence.table(win, np.full(win.size, math.inf)),
        lambda win: WeightSequence.table(win, np.full(win.size, math.nan)),
    ], ids=["power-nan", "power-inf", "power-minus-inf", "power-overflow", "table-inf",
            "table-nan"])
    def test_refuses_non_finite(self, build):
        # filterwarnings = error: an overflow warning would fail here, not a ValueError
        with pytest.raises(ValueError, match="finite"):
            build(Window(1, 4))


class TestAqBound:
    @pytest.mark.parametrize("value", [1e305, 1e-305])
    def test_dual_weight_past_the_float_range_refused(self, value):
        # w^{-1/(q-1)} = w^-2 leaves the float range; 1e305 read as a bound of 0.0
        w = WeightSequence.table(Window(1, 16), np.full(33, value))
        with pytest.raises(ValueError, match="A_q scan .* overflows"):
            aq_bound(w, 1.5, 4)
        assert aq_bound(w, 1.0, 4).bound == 1.0  # q = 1 reads w alone
        assert aq_bound(w, 4.0, 4).bound == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_total_refused(self):
        # every cube sum is bounded by the total of w
        w = WeightSequence.table(Window(1, 16), np.full(33, 1e307))
        with pytest.raises(ValueError, match="A_q scan .* overflows"):
            aq_bound(w, 1.0, 1)

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    def test_overflowing_product_refused(self, q):
        # both totals are finite, but avg w times the dual average overflows:
        # `A_q bound inf` after an overflow warning before
        vals = np.ones(33)
        vals[16], vals[17] = 1e300, 1e-300
        w = WeightSequence.table(Window(1, 16), vals)
        with pytest.raises(ValueError, match="A_q scan .* overflows"):
            aq_bound(w, q, 33)

    def test_trivial_is_one(self):
        for q in (1.0, 2.0, 3.5):
            assert aq_bound(WeightSequence.trivial(Window(1, 8)), q, 5).bound == 1.0

    def test_spike_value(self):
        win = Window(1, 8)
        rep = aq_bound(spike_weight(win), 2.0, 4)
        assert rep.bound == pytest.approx(25.0 / 16.0, abs=1e-15)
        assert rep.argmax_n == 2
        assert rep.argmax_anchor in ((-1,), (0,))

    @pytest.mark.parametrize("q,alpha", [(2.0, 0.5), (2.0, -0.5), (3.0, 0.75), (1.0, -0.5)])
    def test_power_weight_stable_under_ncap_doubling(self, q, alpha):
        # alpha inside (-d, d(q-1)): scanned bound converges as the cap grows
        win = Window(1, 32)
        w = WeightSequence.power(win, alpha)
        b1 = aq_bound(w, q, 16).bound
        b2 = aq_bound(w, q, 32).bound
        assert b2 >= b1 - 1e-15
        assert b2 <= b1 * 1.1

    @pytest.mark.parametrize("d,q,seed", [(1, 2.0, 0), (1, 1.0, 1), (2, 2.5, 2), (2, 1.0, 3)])
    def test_matches_brute_oracle(self, d, q, seed):
        win = Window(d, 3)
        rng = np.random.default_rng(seed)
        w = WeightSequence.table(win, rng.uniform(0.5, 4.0, win.size))
        rep = aq_bound(w, q, 4)
        assert rep.bound == pytest.approx(brute_aq(w, q, 4), rel=1e-13)

    @given(st.sampled_from([(1, 3), (1, 12), (2, 2), (2, 4), (3, 1), (3, 2)]),
           st.integers(0, 2 ** 16), st.sampled_from([1.0, 1.5, 2.0, 4.0]),
           st.integers(1, 26), st.integers(0, 26))
    @settings(max_examples=80, deadline=None)
    def test_oracle_property(self, shape, seed, q, n_cap, extra):
        # weights spanning six decades: sums of side-n cubes must stay exact to
        # roundoff, which rules out differences of partial sums
        d, radius = shape
        win = Window(d, radius)
        rng = np.random.default_rng(seed)
        w = WeightSequence.table(win, 10.0 ** rng.uniform(-3.0, 3.0, win.size))
        rep = aq_bound(w, q, n_cap)
        assert rep.n_cap == min(n_cap, win.side)
        assert rep.bound == pytest.approx(brute_aq(w, q, n_cap), rel=1e-12, abs=0)
        start = [a + radius for a in rep.argmax_anchor]
        vals = w.values.reshape((win.side,) * d)
        cube = vals[tuple(slice(s, s + rep.argmax_n) for s in start)]
        assert cube.shape == (rep.argmax_n,) * d and rep.argmax_n <= rep.n_cap
        assert cube_aq(cube, q) == pytest.approx(rep.bound, rel=1e-12, abs=0)
        assert aq_bound(w, q, n_cap + extra).bound >= rep.bound

    def test_bound_at_least_one_and_equality_iff_constant(self):
        win = Window(1, 6)
        rng = np.random.default_rng(7)
        w = WeightSequence.table(win, rng.uniform(0.5, 2.0, win.size))
        assert aq_bound(w, 2.0, 4).bound > 1.0
        const = WeightSequence.table(win, np.full(win.size, 3.7))
        assert aq_bound(const, 2.0, 4).bound == pytest.approx(1.0, abs=1e-14)

    def test_nondecreasing_in_ncap(self):
        win = Window(1, 10)
        w = spike_weight(win)
        bounds = [aq_bound(w, 2.0, n).bound for n in (1, 2, 4, 8)]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_validation(self):
        w = WeightSequence.trivial(Window(1, 4))
        with pytest.raises(ValueError):
            aq_bound(w, 0.5, 4)
        with pytest.raises(ValueError):
            aq_bound(w, math.inf, 4)
        with pytest.raises(ValueError, match="q must be >= 1, got nan"):
            aq_bound(w, math.nan, 4)  # read "q = infinity is not supported" before
        with pytest.raises(ValueError):
            aq_bound(w, 2.0, 0)

    def test_positive_values_required(self):
        win = Window(1, 2)
        with pytest.raises(ValueError):
            WeightSequence.table(win, np.zeros(win.size))


class TestMaximal:
    def test_delta_closed_form(self):
        for d in (1, 2, 3):
            win = Window(d, 5)
            mc = maximal(LatticeSequence.delta(win))
            sup = np.abs(win.indices).max(axis=1)
            assert np.array_equal(np.real(mc.data), (2.0 * sup + 1.0) ** (-float(d)))

    def test_constant_sequence(self):
        win = Window(1, 6)
        c = LatticeSequence(win, np.ones(win.size, dtype=complex))
        mc = maximal(c)
        assert np.real(mc.data[win.flat(0)]) == 1.0

    def test_zero(self):
        win = Window(2, 2)
        z = LatticeSequence(win, np.zeros(win.size, dtype=complex))
        assert np.all(maximal(z).data == 0)

    @pytest.mark.parametrize("d,r,seed", [(1, 5, 0), (2, 2, 1)])
    def test_matches_brute_oracle(self, d, r, seed):
        win = Window(d, r)
        rng = np.random.default_rng(seed)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size))
        got = np.real(maximal(c).data)
        assert np.allclose(got, brute_maximal(c), rtol=1e-13, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_brute_oracle_property(self, data):
        d = data.draw(st.sampled_from((1, 2, 3)))
        win = Window(d, data.draw(st.integers(0, {1: 6, 2: 3, 3: 2}[d])))
        mags = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=win.size, max_size=win.size))
        signs = data.draw(st.lists(st.sampled_from((1.0, -1.0, 1j, -1j)),
                                   min_size=win.size, max_size=win.size))
        c = LatticeSequence(win, np.asarray(signs) * 10.0 ** np.asarray(mags))
        got = np.real(maximal(c).data)
        assert np.allclose(got, brute_maximal(c), rtol=1e-13, atol=0)

    def test_dominates_pointwise(self):
        win = Window(1, 6)
        rng = np.random.default_rng(4)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        assert np.all(np.real(maximal(c).data) >= np.abs(c.data) - 1e-15)

    def test_sublinear(self):
        win = Window(1, 5)
        rng = np.random.default_rng(5)
        c1 = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        c2 = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        csum = LatticeSequence(win, c1.data + c2.data)
        lhs = np.real(maximal(csum).data)
        rhs = np.real(maximal(c1).data) + np.real(maximal(c2).data)
        assert np.all(lhs <= rhs + 1e-13)


class TestWeightedNorm:
    def test_delta(self):
        win = Window(1, 4)
        w = spike_weight(win)
        assert weighted_norm(LatticeSequence.delta(win), 2.0, w) == 2.0

    def test_constant_trivial(self):
        win = Window(1, 4)
        c = LatticeSequence(win, np.ones(win.size, dtype=complex))
        assert weighted_norm(c, 2.0, WeightSequence.trivial(win)) == pytest.approx(
            math.sqrt(win.size), rel=1e-15)

    def test_direct_sum(self):
        win = Window(1, 1)
        c = LatticeSequence(win, np.array([0, 1, 1], dtype=complex))
        w = WeightSequence.table(win, np.array([1.0, 1.0, 3.0]))
        assert weighted_norm(c, 1.0, w) == 4.0

    def test_overflow_refused(self):
        # read as inf, with overflow warnings, before
        win = Window(1, 16)
        w = WeightSequence.table(win, np.full(win.size, 1e305))
        c = LatticeSequence(win, np.full(win.size, 2.0 + 0j))
        assert weighted_norm(c, 4.0, w) == float(np.sum(16.0 * w.values) ** 0.25)
        with pytest.raises(ValueError, match="overflows under the table"):
            weighted_norm(LatticeSequence(win, np.full(win.size, 20.0 + 0j)), 4.0, w)

    def test_q_validation(self):
        win = Window(1, 2)
        c = LatticeSequence.delta(win)
        with pytest.raises(ValueError):
            weighted_norm(c, 0.5, WeightSequence.trivial(win))
        with pytest.raises(ValueError):
            weighted_norm(c, math.inf, WeightSequence.trivial(win))


class TestCharacterization:
    @pytest.mark.parametrize("w_kind,q", [("trivial", 2.0), ("spike", 2.0),
                                          ("power", 2.0), ("spike", 3.0)])
    def test_margins_nonnegative(self, w_kind, q):
        win = Window(1, 8)
        w = {"trivial": WeightSequence.trivial(win), "spike": spike_weight(win),
             "power": WeightSequence.power(win, 0.5)}[w_kind]
        rep = aq_characterization_check(w, q, trials=200, seed=11)
        assert rep.worst_margin >= 0.0

    def test_indicator_half_cube(self):
        # indicator of half a length-2 cube, trivial weight: lhs 1/4 <= rhs 1/2
        win = Window(1, 4)
        rep = aq_bound(WeightSequence.trivial(win), 2.0, 4)
        lhs = (0.5) ** 2 * 1.0
        rhs = rep.bound * 0.5
        assert lhs <= rhs

    def test_refuses_no_trials(self):
        # a check of no cube passed with worst_margin = inf
        with pytest.raises(ValueError, match="trials must be >= 1"):
            aq_characterization_check(WeightSequence.trivial(Window(1, 4)), 2.0, 0)
