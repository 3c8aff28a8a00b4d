import numpy as np
import pytest

from offdiag.inversion import (SingularMatrixError, inverse_closedness_experiment,
                               left_inverse, neumann_term_envelope,
                               spectral_bracket, wiener_invert)
from offdiag.lattice import LocalizedMatrix, Window, generate, scale
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

    def test_residual_monotone_until_tolerance(self):
        win = Window(1, 32)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        _, rep = wiener_invert(a, tol=1e-12, k_max=500)
        hist = rep.residual_history
        assert np.all(np.diff(hist) <= 1e-14)
        # contraction envelope: residual after k terms is at most ~r0^{k+1}
        ks = np.arange(hist.size)
        assert np.all(hist <= rep.r0 ** (ks + 1) * (1 + 1e-9) + 1e-300)

    def test_profile_nonincreasing(self):
        win = Window(1, 24)
        a = LocalizedMatrix(win, np.eye(win.size)
                            + 0.3 * generate("banded_random", win, seed=8, bandwidth=2).data
                            / operator_norm_l2(generate("banded_random", win, seed=8,
                                                        bandwidth=2).data))
        _, rep = wiener_invert(a, tol=1e-10, k_max=1000)
        assert np.all(np.diff(rep.inverse_profile.values) <= 0)

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
        assert np.abs(b.data @ a.data - np.eye(win.size)).max() == pytest.approx(
            rep.residual, rel=1e-6)


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


class TestEnvelope:
    def test_shape_and_eventual_decay(self):
        env = neumann_term_envelope(400, r0=0.8, b_ring_norm=2.0, big_d=16.0,
                                    theta=0.4, mpu=4.3, p=2.0, d=1)
        assert env.shape == (400,)
        assert env[-1] < env[150]  # r0^n wins in the far tail

    def test_r0_validation(self):
        with pytest.raises(ValueError):
            neumann_term_envelope(10, r0=0.0, b_ring_norm=1.0, big_d=1.0,
                                  theta=0.4, mpu=1.0, p=1.0, d=1)

    def test_experiment_attaches_envelope(self):
        from offdiag.weights import WeightMatrix, default_companion, theta_fit

        u = WeightMatrix.polynomial(2.0, 1)
        fit = theta_fit(u, default_companion(u, 2.0), 2.0, 1)
        rows = inverse_closedness_experiment(
            lambda win: toeplitz(win, {0: 2.0, 1: 1.0}), (8, 16), p=2.0,
            weight=u, growth_cert=(fit, 4.317))
        for r in rows:
            assert r.envelope_log10 is not None and np.isfinite(r.envelope_log10)
        bare = inverse_closedness_experiment(
            lambda win: toeplitz(win, {0: 2.0, 1: 1.0}), (8,), p=1.0)
        assert bare[0].envelope_log10 is None


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
