import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offdiag import inversion, norms
from offdiag.inversion import (SingularMatrixError, inverse_closedness_experiment,
                               left_inverse, spectral_bracket, wiener_invert)
from offdiag.lattice import LocalizedMatrix, Window, decay_profile, generate, scale
from offdiag.norms import beurling_norm
from offdiag.spectral import operator_norm_l2


def toeplitz(win, coeffs):
    return generate("toeplitz_from_coeffs", win, coeffs=coeffs)


class TestSpectralBracket:
    def test_identity(self):
        rep = spectral_bracket(generate("identity", Window(1, 16)))
        assert rep.c1 == pytest.approx(1.0, abs=1e-12)
        assert rep.c2 == pytest.approx(1.0, abs=1e-12)
        assert rep.r0 == pytest.approx(0.0, abs=1e-12)

    def test_bounded_symbol(self):
        # |2 + e^{-ix}|^2 ranges over [1, 9]
        rep = spectral_bracket(toeplitz(Window(1, 64), {0: 2.0, 1: 1.0}))
        assert rep.c1 >= 1.0 - 1e-6
        assert rep.c2 <= 9.0 + 1e-6

    def test_matches_dense_oracle(self):
        win = Window(1, 24)
        a = generate("banded_random", win, seed=9, bandwidth=3)
        rep = spectral_bracket(a)
        eigs = np.linalg.eigvalsh(a.data.conj().T @ a.data)
        assert rep.c1 == pytest.approx(max(eigs[0], 0.0), abs=1e-10)
        assert rep.c2 == pytest.approx(eigs[-1], rel=1e-12)

    def test_vanishing_symbol_collapse(self):
        values = {}
        for r in (16, 64, 256):
            rep = spectral_bracket(toeplitz(Window(1, r), {0: 1.0, 1: -1.0}))
            values[r] = rep.c1
        assert values[64] < values[16] / 4
        assert values[256] < values[64] / 4

    def test_zero_rejected(self):
        win = Window(1, 4)
        with pytest.raises(ValueError):
            spectral_bracket(LocalizedMatrix(win, np.zeros((win.size, win.size))))


class TestSpectralHelpers:
    def test_operator_norm_paths(self):
        win = Window(1, 12)
        a = generate("banded_random", win, seed=1, bandwidth=2)
        dense = operator_norm_l2(a.data)
        assert dense == pytest.approx(np.linalg.norm(a.data, 2), rel=1e-13)


class TestRealComplexAgreement:
    """A real operand runs in real arithmetic; e^{0.7i} A has the same A*A,
    so the complex path must give the same bracket and the same term count."""

    @pytest.mark.parametrize("shift", [2.0, 1.05])
    @pytest.mark.parametrize("d, radius", [(1, 32), (2, 6)])
    def test_rotated_operand_agrees(self, monkeypatch, shift, d, radius):
        zero, one = (0,) * d, (1,) + (0,) * (d - 1)
        a = toeplitz(Window(d, radius), {zero: shift, one: 1.0})
        rotated = scale(np.exp(0.7j), a)
        seen, eigvalsh = [], np.linalg.eigvalsh

        def recorder(m):
            seen.append(m.dtype)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorder)
        real_b, complex_b = spectral_bracket(a), spectral_bracket(rotated)
        assert seen == [np.float64, np.complex128]
        for field in ("c1", "c2", "r0"):
            assert getattr(real_b, field) == pytest.approx(getattr(complex_b, field),
                                                          rel=0, abs=1e-13 * real_b.c2)
        _, real_rep = wiener_invert(a)
        _, complex_rep = wiener_invert(rotated)
        assert real_rep.terms_used == complex_rep.terms_used


class TestWienerInvert:
    def test_identity_one_term(self):
        a_inv, rep = wiener_invert(generate("identity", Window(1, 8)), tol=1e-12)
        assert np.allclose(a_inv.data, np.eye(17), atol=1e-14)
        assert rep.terms_used <= 1
        assert rep.r0 == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case(self):
        a_inv, rep = wiener_invert(scale(3.0, generate("identity", Window(1, 6))), tol=1e-12)
        assert np.allclose(a_inv.data, np.eye(13) / 3.0, atol=1e-14)
        assert rep.residual <= 1e-12
        assert rep.r0 == pytest.approx(0.0, abs=1e-14)
        assert rep.terms_used == 1  # the single B^0 term suffices

    def test_bidiagonal_oracle(self):
        win = Window(1, 64)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        a_inv, rep = wiener_invert(a, tol=1e-10, k_max=500)
        dense = np.linalg.solve(a.data, np.eye(win.size))
        assert np.abs(a_inv.data - dense).max() <= 1e-8
        ix = win.indices[:, 0]
        diffs = ix[:, None] - ix[None, :]
        closed = np.where(diffs >= 0, 0.5 * (-0.5) ** np.maximum(diffs, 0), 0.0)
        assert np.abs(a_inv.data - closed).max() <= 1e-8
        assert np.abs(rep.inverse_profile.values[:21]
                      - 0.5 ** (np.arange(21) + 1.0)).max() <= 1e-8

    def test_two_sided_residual(self):
        # success is two-sided: both A_inv A - I and A A_inv - I meet tol
        win = Window(1, 32)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        _, rep = wiener_invert(a, tol=1e-11, k_max=500)
        assert rep.residual <= 1e-11
        assert rep.two_sided_residual <= 1e-11
        assert rep.converged

    def test_two_sided_for_nonnormal(self):
        win = Window(1, 24)
        rng = np.random.default_rng(5)
        ix = win.indices
        band = np.abs(ix[:, None] - ix[None]).max(-1) <= 3
        data = 3.0 * np.eye(win.size) + 0.35 * band * rng.standard_normal((win.size, win.size))
        a_inv, rep = wiener_invert(LocalizedMatrix(win, data), tol=1e-10, k_max=2000)
        assert rep.converged
        assert np.abs(a_inv.data @ data - np.eye(win.size)).max() <= 1e-10
        assert np.abs(data @ a_inv.data - np.eye(win.size)).max() <= 1e-10
        # capped at 64 terms, where XA - I meets tol but AX - I does not yet
        _, capped = wiener_invert(LocalizedMatrix(win, data), tol=1.2e-9, k_max=64)
        assert capped.residual <= 1.2e-9 < capped.two_sided_residual
        assert not capped.converged

    def test_keeps_squaring_until_ax_meets_tol(self):
        # at 64 terms max|XA - I| meets tol but max|AX - I| does not: with
        # room left under k_max the engine squares on, and converged holds
        # only once both residuals of the returned X meet tol
        win, tol = Window(1, 24), 1.2e-9
        rng = np.random.default_rng(5)
        ix = win.indices
        band = np.abs(ix[:, None] - ix[None]).max(-1) <= 3
        data = 3.0 * np.eye(win.size) + 0.35 * band * rng.standard_normal((win.size, win.size))
        a = LocalizedMatrix(win, data)
        _, capped = wiener_invert(a, tol=tol, k_max=64)
        assert capped.residual <= tol < capped.two_sided_residual
        a_inv, rep = wiener_invert(a, tol=tol, k_max=2000)
        first_met = int(np.argmax(rep.residual_history <= tol))
        assert 2**first_met == 64 < rep.terms_used
        assert rep.converged
        eye = np.eye(win.size)
        assert np.abs(a_inv.data @ data - eye).max() <= tol
        assert np.abs(data @ a_inv.data - eye).max() <= tol
        assert rep.residual <= tol and rep.two_sided_residual <= tol

    def test_residual_monotone_until_tolerance(self):
        win = Window(1, 32)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        _, rep = wiener_invert(a, tol=1e-12, k_max=500)
        hist = rep.residual_history
        assert rep.terms_used == 2 ** (hist.size - 1)
        assert np.all(np.diff(hist) <= 1e-14)
        # contraction envelope: hist[k] is measured at 2^k terms, where
        # XA - I = -B^{2^k} up to roundoff, at most r0^{2^k} entrywise
        ks = np.arange(hist.size)
        assert np.all(hist <= rep.r0 ** (2.0 ** ks) * (1 + 1e-9) + 1e-14)

    def test_converged_means_measured(self):
        # 1.05I + S at a tolerance near roundoff, where the powers of B fall
        # below tol well before the residuals of the computed inverse do
        win = Window(1, 32)
        a = toeplitz(win, {0: 1.05, 1: 1.0})
        x, rep = wiener_invert(a, tol=1e-14, k_max=20000)
        eye = np.eye(win.size)
        left = np.abs(x.data @ a.data - eye).max()
        right = np.abs(a.data @ x.data - eye).max()
        # the engine multiplies real operands in real arithmetic: equal up to summation order
        assert rep.residual == pytest.approx(left, abs=1e-15)
        assert rep.two_sided_residual == pytest.approx(right, abs=1e-15)
        assert not rep.converged or (left <= 1e-14 and right <= 1e-14)

    @given(st.sampled_from([(1, 6), (1, 12), (2, 2), (2, 3), (3, 1)]), st.integers(0, 2 ** 16),
           st.sampled_from([0.4, 0.6, 1.0, 2.0]),
           st.sampled_from([1e-8, 1e-12, 1e-13, 1e-14, 1e-15]))
    @settings(max_examples=60, deadline=None)
    def test_converged_property_against_dense(self, shape, seed, shift, tol):
        d, radius = shape
        win = Window(d, radius)
        noise = generate("banded_random", win, seed=seed, bandwidth=1).data
        data = shift * 3 ** d * np.eye(win.size) + noise
        assume(np.linalg.cond(data) <= 1e6)
        x, rep = wiener_invert(LocalizedMatrix(win, data), tol=tol, k_max=4000)
        eye = np.eye(win.size)
        left = np.abs(x.data @ data - eye).max()
        right = np.abs(data @ x.data - eye).max()
        if rep.converged:
            assert left <= tol and right <= tol
            # X - D = ((XA - I) - (DA - I)) A^{-1} for the dense solve D, up to roundoff
            dense = np.linalg.solve(data, eye)
            dense_left = np.abs(dense @ data - eye).max()
            assert (np.abs(x.data - dense).max()
                    <= 2 * (left + dense_left) * np.abs(dense).sum(axis=0).max())

    def test_profile_nonincreasing(self):
        win = Window(1, 24)
        a = LocalizedMatrix(win, np.eye(win.size)
                            + 0.3 * generate("banded_random", win, seed=8, bandwidth=2).data
                            / operator_norm_l2(generate("banded_random", win, seed=8,
                                                        bandwidth=2).data))
        _, rep = wiener_invert(a, tol=1e-10, k_max=1000)
        assert np.all(np.diff(rep.inverse_profile.values) <= 0)

    @pytest.mark.parametrize("d, radius, coeffs", [
        (1, 32, {0: 2.0, 1: 1.0}), (2, 6, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 0.5j})])
    def test_one_profile_per_inversion(self, monkeypatch, d, radius, coeffs):
        # the ring norm is read off the reported profile, not a second one
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return decay_profile(*args, **kwargs)

        monkeypatch.setattr(inversion, "decay_profile", recorded)
        monkeypatch.setattr(norms, "decay_profile", recorded)
        a_inv, rep = wiener_invert(toeplitz(Window(d, radius), coeffs))
        assert len(calls) == 1
        monkeypatch.undo()
        assert rep.inverse_ring_norm == beurling_norm(a_inv, 1.0, None)
        assert np.array_equal(rep.inverse_profile.values, decay_profile(a_inv).values)

    def test_singular_raises(self):
        win = Window(1, 8)
        data = np.ones((win.size, win.size))  # rank one
        with pytest.raises(SingularMatrixError):
            wiener_invert(LocalizedMatrix(win, data), tol=1e-8, k_max=50)

    def test_near_singular_flagged_partial(self):
        # unipotent truncation: C1 ~ 0 reported, series cannot converge quickly
        win = Window(1, 128)
        a = toeplitz(win, {0: 1.0, 1: -1.0})
        a_inv, rep = wiener_invert(a, tol=1e-10, k_max=40)
        assert rep.c1 < 1e-3
        assert not rep.converged
        assert rep.residual > 1e-10

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            wiener_invert(generate("identity", Window(1, 4)), tol=0.0)

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_kmax_below_one_rejected(self, k_max):
        # a validation error, not a series reported unconverged at 1 term
        with pytest.raises(ValueError, match="k_max"):
            wiener_invert(generate("identity", Window(1, 4)), k_max=k_max)


class TestEngineScratch:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_minus_identity_has_the_bits_of_subtracting_eye(self, dtype):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((7, 7)).astype(dtype)
        if dtype is np.complex128:
            m = m + 1j * rng.standard_normal((7, 7))
        m[0, 1], m[1, 1], m[2, 3], m[3, 3] = -0.0, 1.0, np.nan, np.inf
        want = m - np.eye(7)
        assert inversion._minus_identity(m.copy()).tobytes() == want.tobytes()

    def test_engine_holds_five_real_arrays(self):
        # a real operand: no identity matrix, and the operand copy and last
        # XA - I released before the inverse is profiled; 9 arrays before
        win = Window(1, 256)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        tracemalloc.start()
        try:
            a_inv, rep = wiener_invert(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= 5 * 8 * win.size**2 + (1 << 16)


class TestLeftInverse:
    def test_invertible_matches_inverse(self):
        win = Window(1, 32)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        b, rep = left_inverse(a, tol=1e-10)
        assert rep.converged
        assert np.abs(b.data @ a.data - np.eye(win.size)).max() <= 1e-10
        dense = np.linalg.solve(a.data, np.eye(win.size))
        assert np.abs(b.data - dense).max() <= 1e-8

    def test_report_residual_is_left_residual(self):
        win = Window(1, 16)
        a = generate("banded_random", win, seed=3, bandwidth=2)
        a = LocalizedMatrix(win, a.data + 4.0 * np.eye(win.size))
        b, rep = left_inverse(a, tol=1e-11)
        assert np.abs(b.data @ a.data - np.eye(win.size)).max() == rep.residual


class TestInverseClosedness:
    def test_bounded_family_norms_stable(self):
        rows = inverse_closedness_experiment(
            lambda win: toeplitz(win, {0: 2.0, 1: 1.0}), (16, 32, 64, 128),
            p=1.0, tol=1e-10, k_max=500)
        norms = [r.inverse_norm for r in rows]
        assert abs(norms[-1] - norms[-2]) < 1e-3
        assert all(abs(n - 1.5) < 1e-3 for n in norms)

    def test_identity_family_constant(self):
        rows = inverse_closedness_experiment(
            lambda win: generate("identity", win), (4, 8, 16), p=1.0)
        assert all(r.inverse_norm == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_diagonally_dominant_random(self):
        # one draw on the top window, restricted downward: a coherent family
        from offdiag.lattice import restrict

        top = Window(1, 64)
        k_top = generate("banded_random", top, seed=17, bandwidth=2)
        k_top = LocalizedMatrix(top, k_top.data / operator_norm_l2(k_top.data))

        def family(win):
            k = restrict(k_top, win)
            return LocalizedMatrix(win, np.eye(win.size) + 0.3 * k.data)

        rows = inverse_closedness_experiment(family, (16, 32, 64), p=1.0,
                                             tol=1e-10, k_max=2000)
        norms = [r.inverse_norm for r in rows]
        assert abs(norms[-1] - norms[-2]) <= 0.05 * norms[-2]
        dense = np.linalg.solve(family(top).data, np.eye(top.size))
        got = wiener_invert(family(top), tol=1e-10, k_max=2000)[0].data
        assert np.abs(got - dense).max() <= 1e-8


class TestDemkoMossSmith:
    """Decay of the computed inverse against the bound of Demko, Moss and Smith
    (Math. Comp. 43, 1984), which owes nothing to the Neumann engine."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, radius, b", [(1, 24, 2), (2, 5, 1), (3, 3, 1)])
    def test_inverse_profile_within_bound(self, d, radius, b, seed):
        win = Window(d, radius)
        noise = generate("banded_random", win, seed=seed, bandwidth=b).data
        a = LocalizedMatrix(win, 1.5 * (2 * b + 1) ** d * np.eye(win.size) + noise)
        x, rep = wiener_invert(a)
        # M = A*A is positive definite with lattice bandwidth 2b and spectrum
        # in [lo, hi], so |M^{-1}(i, k)| <= C lam^{|i-k|}
        eigs = np.linalg.eigvalsh(a.data.conj().T @ a.data)
        lo, hi = eigs[0], eigs[-1]
        kappa = hi / lo
        lam = ((np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)) ** (1.0 / (2 * b))
        big_c = max(1.0 / lo, (1 + np.sqrt(kappa)) ** 2 / (2 * hi))
        # A^{-1} = M^{-1} A*: the band b of A* costs b rings and a row sum of A
        row_sum = np.abs(a.data).sum(axis=1).max()
        # X - A^{-1} = (XA - I) A^{-1}, entrywise at most max|XA - I| times
        # the largest column l^1 norm of A^{-1}
        dense = np.linalg.inv(a.data)
        err = np.abs(x.data @ a.data - np.eye(win.size)).max() * np.abs(dense).sum(axis=0).max()
        h = rep.inverse_profile.values
        n = np.arange(h.size)
        bound = big_c * row_sum * lam ** np.maximum(n - b, 0) + err
        assert np.all(h <= bound)
        assert h[-1] < 1e-3 * h[0]  # the bound is met with decay, not by a flat profile
