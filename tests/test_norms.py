import functools
import itertools
import math

import numpy as np
import pytest

from offdiag import lattice
from offdiag.lattice import (LocalizedMatrix, Window, add, adjoint, diagonal_suprema,
                             generate, multiply, scale, sharing, weighted_magnitude,
                             weighted_pass)
from offdiag.norms import (beurling_norm, brandenburg_radii, jaffard_value, norm_report,
                           product_inequality_check, schur_norm,
                           sjostrand_norm, square_growth_check)
from offdiag.weights import WeightMatrix, default_companion, theta_fit


def rand_matrix(win, seed, density=0.6):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((win.size, win.size)) + 1j * rng.standard_normal((win.size, win.size))
    data *= rng.uniform(0, 1, data.shape) < density
    return LocalizedMatrix(win, data)


class TestNormValues:
    def test_identity_p1(self):
        assert beurling_norm(generate("identity", Window(1, 4)), 1.0) == 1.0

    def test_shift_p1(self):
        # profile [1, 1, 0, ...]: rings 1 + 2 contribute
        assert beurling_norm(generate("shift", Window(1, 4)), 1.0) == 3.0

    def test_all_ones_window(self):
        win = Window(1, 1)
        ones = LocalizedMatrix(win, np.ones((3, 3)))
        assert beurling_norm(ones, 1.0) == 5.0
        assert sjostrand_norm(ones, 1.0) == 5.0
        assert schur_norm(ones, 1.0) == 3.0

    def test_shift_diagonal_and_rowcol(self):
        s = generate("shift", Window(1, 4))
        assert sjostrand_norm(s, 1.0) == 1.0
        assert schur_norm(s, 1.0) == 1.0

    @pytest.mark.parametrize("u", [
        WeightMatrix.trivial(1),
        WeightMatrix.polynomial(2.0, 1),
        WeightMatrix.subexponential(0.5, 1.0, 1),
        WeightMatrix.constant(4.0, 1),
    ])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_identity_norm_is_diagonal_sup(self, u, p):
        win = Window(1, 5)
        ident = generate("identity", win)
        assert beurling_norm(ident, p, u) == float(np.diag(u.grid(win)).max())

    def test_brute_force_oracle(self):
        # independent enumeration of all three norms on a small window
        win = Window(1, 3)
        a = rand_matrix(win, 5)
        u = WeightMatrix.polynomial(1.0, 1)
        g = u.grid(win)
        mag = np.abs(a.data) * g
        ix = win.indices[:, 0]
        p = 2.0
        # ring norm
        total = 0.0
        for k in range(-2 * 3, 2 * 3 + 1):
            sup = max((mag[i, j] for i in range(7) for j in range(7)
                       if abs(ix[i] - ix[j]) >= abs(k)), default=0.0)
            total += sup**p
        assert beurling_norm(a, p, u) == pytest.approx(total ** (1 / p), rel=1e-13)
        # diagonal norm
        total = 0.0
        for k in range(-6, 7):
            sup = max((mag[i, j] for i in range(7) for j in range(7)
                       if ix[i] - ix[j] == k), default=0.0)
            total += sup**p
        assert sjostrand_norm(a, p, u) == pytest.approx(total ** (1 / p), rel=1e-13)
        # diagonal norm at d = 2, over every k in [-2R, 2R]^2
        win2 = Window(2, 2)
        u2 = WeightMatrix.polynomial(1.0, 2)
        a2 = rand_matrix(win2, 6)
        mag2 = np.abs(a2.data) * u2.grid(win2)
        ix2 = win2.indices
        total = 0.0
        for k in itertools.product(range(-4, 5), repeat=2):
            sup = max((mag2[i, j] for i in range(win2.size) for j in range(win2.size)
                       if tuple(ix2[i] - ix2[j]) == k), default=0.0)
            total += sup**p
        assert sjostrand_norm(a2, p, u2) == pytest.approx(total ** (1 / p), rel=1e-13)
        # row/column norm
        rows = max(np.sum(mag[i, :] ** p) ** (1 / p) for i in range(7))
        cols = max(np.sum(mag[:, j] ** p) ** (1 / p) for j in range(7))
        assert schur_norm(a, p, u) == pytest.approx(max(rows, cols), rel=1e-13)


class TestOrderingAndAxioms:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_ordering(self, seed, p):
        win = Window(1, 4) if seed % 2 == 0 else Window(2, 2)
        a = rand_matrix(win, seed)
        u = WeightMatrix.polynomial(1.0, win.d)
        rep = norm_report(a, p, u)
        slack = 1e-12 * max(rep.beurling, 1.0)
        assert rep.schur <= rep.sjostrand + slack
        assert rep.sjostrand <= rep.beurling + slack

    def test_p_inf_collapse(self):
        win = Window(2, 2)
        a = rand_matrix(win, 3)
        u = WeightMatrix.polynomial(1.0, 2)
        j = jaffard_value(a, u)
        assert beurling_norm(a, math.inf, u) == j
        assert sjostrand_norm(a, math.inf, u) == j
        assert schur_norm(a, math.inf, u) == j

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_and_homogeneity(self, seed):
        win = Window(1, 5)
        a, b = rand_matrix(win, seed), rand_matrix(win, 100 + seed)
        u = WeightMatrix.polynomial(2.0, 1)
        na, nb = beurling_norm(a, 2.0, u), beurling_norm(b, 2.0, u)
        nsum = beurling_norm(add(a, b), 2.0, u)
        assert nsum <= na + nb + 1e-12 * (na + nb)
        assert beurling_norm(scale(3 - 4j, a), 2.0, u) == pytest.approx(5 * na, rel=1e-13)

    def test_adjoint_invariance_symmetric_weight(self):
        win = Window(1, 5)
        a = rand_matrix(win, 9)
        for u in (None, WeightMatrix.polynomial(2.0, 1),
                  WeightMatrix.subexponential(0.5, 1.0, 1)):
            assert beurling_norm(adjoint(a), 1.5, u) == pytest.approx(
                beurling_norm(a, 1.5, u), rel=1e-13)

    def test_solidness(self):
        win = Window(1, 5)
        a = rand_matrix(win, 11)
        rng = np.random.default_rng(12)
        dom = LocalizedMatrix(win, a.data * rng.uniform(0, 1, a.data.shape))
        u = WeightMatrix.polynomial(1.0, 1)
        for fn in (beurling_norm, sjostrand_norm, schur_norm):
            assert fn(dom, 2.0, u) <= fn(a, 2.0, u) * (1 + 1e-12)

    def test_zero_matrix(self):
        win = Window(1, 3)
        z = LocalizedMatrix(win, np.zeros((7, 7)))
        assert beurling_norm(z, 1.0) == 0.0
        assert beurling_norm(z, math.inf) == 0.0


class GridWeight:
    """A weight given by its values on one window.  The norms take any object
    with a descriptor and a grid(window) method, so a weight need not be radial."""

    descriptor = "table"

    def __init__(self, values):
        self.values = values

    def grid(self, window):
        return self.values


def sym_table(win, seed):
    rng = np.random.default_rng(seed)
    vals = 1.0 + rng.uniform(0.0, 3.0, (win.size, win.size))
    return GridWeight(np.maximum(vals, vals.T))


def weight_of(kind, win):
    return {"none": lambda: None,
            "trivial": lambda: WeightMatrix.trivial(win.d),
            "polynomial": lambda: WeightMatrix.polynomial(1.5, win.d),
            "constant": lambda: WeightMatrix.constant(3.0, win.d),
            "subexponential": lambda: WeightMatrix.subexponential(0.5, 0.5, win.d),
            "table": lambda: sym_table(win, 5)}[kind]()


@pytest.fixture
def grid_calls(monkeypatch):
    """Counts WeightMatrix.grid calls, the one place a weight is evaluated on a window."""
    calls = []
    grid = WeightMatrix.grid
    monkeypatch.setattr(WeightMatrix, "grid", lambda self, win: calls.append(win) or grid(self, win))
    return calls


class TestWeightedPass:
    @pytest.mark.parametrize("d, radius", [(1, 5), (2, 2), (3, 1)])
    @pytest.mark.parametrize("kind", ["none", "trivial", "polynomial", "constant",
                                      "subexponential", "table"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_report_equals_the_four_calls(self, d, radius, kind, real):
        win = Window(d, radius)
        a = rand_matrix(win, 7 * d + radius)
        if real:
            a = LocalizedMatrix(win, a.data.real)
        u = weight_of(kind, win)
        mag = np.abs(a.data) * (1.0 if u is None else u.grid(win))  # the parent's |a| u
        for p in (1.0, 2.0, 3.0, math.inf):
            rep = norm_report(a, p, u)
            assert (rep.beurling, rep.sjostrand, rep.schur, rep.jaffard) == (
                beurling_norm(a, p, u), sjostrand_norm(a, p, u), schur_norm(a, p, u),
                jaffard_value(a, u))
            assert rep.jaffard == float(mag.max())
            if math.isinf(p):
                assert rep.sjostrand == float(diagonal_suprema(mag, win).max())
            else:
                assert rep.sjostrand == float(np.sum(diagonal_suprema(mag, win) ** p) ** (1 / p))
                assert rep.schur == float(max(np.max(np.sum(mag**p, axis=1) ** (1 / p)),
                                              np.max(np.sum(mag**p, axis=0) ** (1 / p))))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("u", [
        WeightMatrix.trivial, lambda d: WeightMatrix.polynomial(2.0, d),
        lambda d: WeightMatrix.polynomial(0.37, d), lambda d: WeightMatrix.constant(4.0, d),
        lambda d: WeightMatrix.constant(1.3, d), lambda d: WeightMatrix.subexponential(0.5, 0.7, d),
    ], ids=["trivial", "polynomial-2", "polynomial-0.37", "constant-4", "constant-1.3",
            "subexponential"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_radial_weight_factors_out_of_the_diagonal_suprema(self, d, u, real):
        # u(i, j) = psi(|i - j|_inf) is constant on each diagonal k = i - j, and x -> x psi
        # rounds monotonically, so the weighted suprema are the plain ones times psi(|k|_inf)
        u = u(d)
        for radius, seed in ((1, 0), (2, 1), (3 if d < 3 else 2, 2)):
            win = Window(d, radius)
            a = rand_matrix(win, 10 * d + seed)
            if real:
                a = LocalizedMatrix(win, a.data.real)
            k = np.abs(np.arange(-2 * radius, 2 * radius + 1))
            psi_k = u.radial.value(np.arange(win.side))[functools.reduce(np.maximum.outer,
                                                                          [k] * d)]
            want = diagonal_suprema(np.abs(a.data), win) * psi_k
            assert weighted_pass(a, u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("u", [None, WeightMatrix.polynomial(1.0, 1)],
                             ids=["trivial", "polynomial"])
    def test_pass_is_read_only(self, u):
        a = rand_matrix(Window(1, 3), 1)
        for arr in (weighted_pass(a, u), weighted_magnitude(a, u)):
            assert not arr.flags.writeable

    def test_one_grid_per_report(self, grid_calls):
        a = rand_matrix(Window(2, 2), 3)
        norm_report(a, 2.0, WeightMatrix.polynomial(1.0, 2))
        assert len(grid_calls) == 1  # 4 before: one per norm family

    def test_one_draw_block_weights_each_matrix_once(self, grid_calls):
        # C02's draw: 16 grid calls before, one per matrix now (a, a + b, b, alpha a, a*, dom)
        win = Window(1, 6)
        a, b = rand_matrix(win, 1), rand_matrix(win, 2)
        u = WeightMatrix.polynomial(2.0, 1)
        dom = LocalizedMatrix(win, a.data * 0.5)
        with sharing("passes"):
            norm_report(a, 2.0, u)
            for m in (add(a, b), b, scale(2j, a), adjoint(a)):
                beurling_norm(m, 2.0, u)
            norm_report(dom, 2.0, u)
            jaffard_value(a, u)
            for fn in (beurling_norm, sjostrand_norm, schur_norm):
                fn(a, math.inf, u)
        assert len(grid_calls) == 6

    def test_block_does_not_outlive_itself(self, grid_calls):
        a = rand_matrix(Window(1, 4), 2)
        u = WeightMatrix.polynomial(1.0, 1)
        norm_report(a, 2.0, u)
        norm_report(a, 2.0, u)
        assert len(grid_calls) == 2
        assert lattice._SHARED.get() is None

    def test_equal_data_and_shared_descriptors_get_separate_passes(self, grid_calls):
        win = Window(1, 4)
        a = rand_matrix(win, 5)
        twin = LocalizedMatrix(win, a.data)
        t0, t1 = WeightMatrix.polynomial(1.0000001, 1), WeightMatrix.polynomial(1.0000002, 1)
        assert t0.descriptor == t1.descriptor == "polynomial(1)"
        u = WeightMatrix.polynomial(1.0, 1)
        with sharing("passes"):
            first, second = weighted_pass(a, u), weighted_pass(twin, u)
            assert first is not second
            assert weighted_magnitude(a, u) is not weighted_magnitude(twin, u)
            assert np.array_equal(weighted_magnitude(a, u), weighted_magnitude(twin, u))
            assert not np.array_equal(weighted_magnitude(a, t0), weighted_magnitude(a, t1))
            assert not np.array_equal(weighted_magnitude(a, u), weighted_magnitude(a))
        assert len(grid_calls) == 4

    @pytest.mark.parametrize("kind", ["constant", "table"])
    def test_overflowing_weighted_magnitude_refused(self, kind):
        # inf norms and three overflow warnings before; filterwarnings = error
        win = Window(1, 3)
        a = LocalizedMatrix(win, np.full((win.size, win.size), 4.0))
        u = (WeightMatrix.constant(1e308, 1) if kind == "constant"
             else GridWeight(np.full((win.size, win.size), 1e308)))
        for fn in (norm_report, beurling_norm, sjostrand_norm, schur_norm):
            with pytest.raises(ValueError, match="overflows"):
                fn(a, 2.0, u)
        with pytest.raises(ValueError, match="overflows"):
            jaffard_value(a, u)

    @pytest.mark.parametrize("weight", [None, WeightMatrix.constant(1e200, 1)],
                             ids=["trivial", "constant"])
    def test_overflowing_power_sum_refused(self, weight):
        # inf norms and four overflow warnings before; filterwarnings = error
        win = Window(1, 3)
        entry = 2.0 if weight is not None else 2e200
        a = LocalizedMatrix(win, np.full((win.size, win.size), entry))
        for fn in (norm_report, beurling_norm, sjostrand_norm, schur_norm):
            with pytest.raises(ValueError, match="power sum .* overflows at p=2.0"):
                fn(a, 2.0, weight)
        assert jaffard_value(a, weight) == 2e200
        assert norm_report(a, math.inf, weight).beurling == 2e200

    def test_matrix_that_is_not_finite_passes_as_it_is(self):
        # an overflowed power stays for brandenburg_radii to refuse as ArithmeticError
        data = np.zeros((3, 3))
        data[1, 1] = math.inf
        a = LocalizedMatrix(Window(1, 1), data)
        assert beurling_norm(a, 1.0, WeightMatrix.trivial(1)) == math.inf


class TestProductInequality:
    def test_identity_example(self):
        win = Window(1, 4)
        ident = generate("identity", win)
        u = v = WeightMatrix.trivial(1)
        rep = product_inequality_check(ident, ident, 1.0, u, v)
        assert rep.lhs == 1.0
        assert rep.rhs_split == 8.0  # 2^2 5^0 (1*1 + 1*1)
        assert rep.margin_split == 7.0

    def test_shift_example(self):
        win = Window(1, 4)
        s = generate("shift", win)
        u = v = WeightMatrix.trivial(1)
        rep = product_inequality_check(s, s, 1.0, u, v)
        assert rep.lhs == 5.0  # ||S^2|| from profile [1,1,1]
        assert rep.rhs_split == 72.0  # 4 (3*3 + 3*3)
        assert rep.margin_algebra >= 0.0

    def test_zero_matrix_margin_is_rhs(self):
        win = Window(1, 3)
        z = LocalizedMatrix(win, np.zeros((7, 7)))
        a = rand_matrix(win, 1)
        u = WeightMatrix.polynomial(2.0, 1)
        v = WeightMatrix.constant(4.0, 1)
        rep = product_inequality_check(z, a, 2.0, u, v)
        assert rep.lhs == 0.0
        assert rep.margin_split == rep.rhs_split >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_margins(self, seed):
        d = 1 if seed % 2 == 0 else 2
        win = Window(d, 4) if d == 1 else Window(d, 2)
        a, b = rand_matrix(win, seed), rand_matrix(win, 50 + seed)
        for p, u, v in ((1.0, WeightMatrix.trivial(d), WeightMatrix.trivial(d)),
                        (2.0, WeightMatrix.polynomial(2.0, d), WeightMatrix.constant(4.0, d))):
            rep = product_inequality_check(a, b, p, u, v)
            assert rep.margin_split >= -1e-10
            assert rep.margin_algebra >= -1e-10


class TestBrandenburg:
    def test_shift_roots(self):
        s = generate("shift", Window(1, 64))
        rep = brandenburg_radii(s, 1.0, None, n_max=16, seed=0)
        want = np.array([(2.0 * n + 1.0) ** (1.0 / n) for n in range(1, 17)])
        assert np.array_equal(rep.roots, want)
        assert rep.radius_estimate <= 1.0 + 1e-12

    def test_scaled_identity(self):
        a = scale(2.0, generate("identity", Window(1, 16)))
        rep = brandenburg_radii(a, 1.0, None, n_max=8)
        assert np.allclose(rep.roots, 2.0, rtol=1e-12)
        assert rep.radius_estimate == pytest.approx(2.0, rel=1e-12)
        assert abs(rep.gap) < 1e-12

    def test_identity(self):
        rep = brandenburg_radii(generate("identity", Window(1, 16)), 1.0, None, n_max=4)
        assert np.all(rep.roots == 1.0)

    def test_opnorm_matches_dense(self):
        a = rand_matrix(Window(1, 6), 3)
        rep = brandenburg_radii(a, 1.0, None, n_max=4)
        assert rep.opnorm_l2 == pytest.approx(np.linalg.norm(a.data, 2), rel=1e-12)


class TestExponentRange:
    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
    @pytest.mark.parametrize("norm", [beurling_norm, sjostrand_norm, schur_norm],
                             ids=["beurling", "sjostrand", "schur"])
    def test_exponent_below_one_rejected(self, norm, p):
        a = rand_matrix(Window(1, 4), 1)
        with pytest.raises(ValueError, match="p must lie in"):
            norm(a, p)

    def test_brandenburg_exponent_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must lie in"):
            brandenburg_radii(generate("identity", Window(1, 4)), 0.5, None, n_max=4)


class TestBrandenburgOverflow:
    def test_overflowing_powers_raise(self):
        # 1e200 squared overflows: a root would be inf, then nan
        data = np.zeros((3, 3), dtype=np.complex128)
        data[1, 1], data[2, 1] = 1e200, 1.0
        with pytest.raises(ArithmeticError, match="overflows"):
            brandenburg_radii(LocalizedMatrix(Window(1, 1), data), 1.0, None, n_max=16)

    def test_overflowing_power_sum_of_a_root_raises(self):
        # A is finite but its squares overflow at p = 2: the root is this
        # call's to refuse, as a numerical failure, not the norm's
        data = np.zeros((3, 3), dtype=np.complex128)
        data[1, 1], data[2, 1] = 1e200, 1.0
        with pytest.raises(ArithmeticError, match="overflows"):
            brandenburg_radii(LocalizedMatrix(Window(1, 1), data), 2.0, None, n_max=4)

    def test_overflowing_probe_growth_raises(self):
        # A^2 = 1e308 I keeps both roots finite, but the l2 norm of A^2 x overflows
        a = scale(1e154, generate("identity", Window(1, 2)))
        assert np.all(np.isfinite(multiply(a, a).data))
        with pytest.raises(ArithmeticError, match="overflows"):
            brandenburg_radii(a, 1.0, None, n_max=2)


class TestSquareGrowth:
    def test_requires_certificate(self):
        fit = theta_fit(WeightMatrix.trivial(1), WeightMatrix.trivial(1), 1.0, 1)
        a = rand_matrix(Window(1, 4), 0)
        with pytest.raises(ValueError):
            square_growth_check(a, 1.0, WeightMatrix.trivial(1), fit)

    @pytest.mark.parametrize("seed", range(8))
    def test_margins_nonnegative(self, seed):
        u = WeightMatrix.polynomial(2.0, 1)
        fit = theta_fit(u, default_companion(u, 2.0), 2.0, 1)
        a = rand_matrix(Window(1, 6), seed)
        rep = square_growth_check(a, 2.0, u, fit)
        assert rep.margin >= 0.0
        assert rep.norm_pu >= rep.norm_l2  # the certificate is applied at t >= 1

    @pytest.mark.parametrize("t_grid, a", [
        (np.geomspace(2.0, 1e6, 11), generate("identity", Window(1, 4))),  # t = 1, below
        (np.geomspace(1.0, 1.5, 11), rand_matrix(Window(1, 6), 0)),  # t > 1.5, above
        (np.geomspace(1.0, 1e6, 11), LocalizedMatrix(Window(1, 2), np.zeros((5, 5)))),  # no t
    ], ids=["below", "above", "zero-matrix"])
    def test_t_outside_the_certified_range_refused(self, t_grid, a):
        # (D, theta) is certified on the grid's range only: no extrapolation past it
        u = WeightMatrix.polynomial(2.0, 1)
        fit = theta_fit(u, default_companion(u, 2.0), 2.0, 1, t_grid=t_grid)
        assert fit.satisfied
        with pytest.raises(ValueError, match=r"outside the theta certificate's range \[") as exc:
            square_growth_check(a, 2.0, u, fit)
        assert "\n" not in str(exc.value)
