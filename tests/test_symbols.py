import dataclasses
import math
import re

import numpy as np
import pytest

from offdiag import lattice, stability, symbols
from offdiag.lattice import Window, multiply, restrict
from offdiag.muckenhoupt import WeightSequence
from offdiag.norms import beurling_norm
from offdiag.stability import stability_bracket
from offdiag.symbols import (SymbolCoeffs, VanishingSymbolError, astar_norm,
                             convolve, parse_coeffs, reciprocal_coeffs,
                             symbol_from_dict, symbol_min_modulus,
                             symbol_to_dict, toeplitz_matrix,
                             toeplitz_stability_criterion)


class TestAstarNorm:
    def test_delta(self):
        assert astar_norm(SymbolCoeffs(1, {0: 1.0})) == 1.0

    def test_geometric_tail(self):
        a = SymbolCoeffs(1, {n: 2.0 ** (-(n + 1)) for n in range(0, 40)})
        assert astar_norm(a) == pytest.approx(1.0, abs=1e-11)

    def test_two_coeffs(self):
        assert astar_norm(SymbolCoeffs(1, {0: 2.0, 1: 1.0})) == 3.0

    def test_empty(self):
        assert astar_norm(SymbolCoeffs(1, {})) == 0.0

    def test_sup_lower_bound(self):
        a = SymbolCoeffs(1, {-3: 0.5, 0: 2.0, 5: 1.5})
        assert astar_norm(a) >= max(abs(v) for v in a.coeffs.values())

    def test_d2_uses_ring_counts(self):
        # single coefficient at |n|_inf = 1 in d = 2: tail sups [3, 3],
        # ring counts [1, 8] -> 27 (the d = 1 one-sided tail sum would be 6)
        a = SymbolCoeffs(2, {(1, 0): 3.0})
        assert astar_norm(a) == 27.0
        assert astar_norm(SymbolCoeffs(1, {1: 3.0})) == 6.0

    @pytest.mark.parametrize("coeffs", [
        {0: 2.0, 1: 1.0},
        {-2: 0.3, 0: 1.0, 1: 0.7, 4: 0.1},
        {n: 2.0 ** (-abs(n)) for n in range(-8, 9)},
    ])
    def test_two_sided_vs_one_sided_ratio(self, coeffs):
        # ring norm counts k in Z, the tail norm counts k >= 0: the ratio is
        # observed in [1, 2), never asserted as a fixed constant
        a = SymbolCoeffs(1, coeffs)
        ring = beurling_norm(toeplitz_matrix(a, Window(1, 24)), 1.0)
        tail = astar_norm(a)
        assert 1.0 - 1e-12 <= ring / tail < 2.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_tail_suprema_by_distance(self, d):
        # sum_m ring(m, d) h(m) with h(m) the sup of |a(n)| over |n|_inf >= m,
        # from a per-distance table: the ring_suprema route keeps its bits
        rng = np.random.default_rng(d)
        for _ in range(50):
            r = int(rng.integers(0, 6))
            keys = {tuple(rng.integers(-r, r + 1, d).tolist()) for _ in range(8)}
            a = SymbolCoeffs(d, {n: complex(*rng.standard_normal(2)) for n in keys})
            per = np.zeros(r + 1)
            for n, v in a.coeffs.items():
                m = max(abs(x) for x in n)
                per[m] = max(per[m], abs(v))
            tails = np.ascontiguousarray(np.maximum.accumulate(per[::-1])[::-1])
            want = float(np.sum(tails)) if d == 1 else lattice.ring_lp(tails, d)
            assert astar_norm(a) == want

    def test_matches_toeplitz_ring_norm(self):
        # finiteness correspondence: the d=1 matrix ring norm equals the
        # two-sided tail sum, computable from the coefficients alone
        a = SymbolCoeffs(1, {-1: 0.25, 0: 2.0, 2: 0.5})
        win = Window(1, 16)
        mat_norm = beurling_norm(toeplitz_matrix(a, win), 1.0)
        per = np.zeros(3)
        for (n,), v in a.coeffs.items():
            per[abs(n)] = max(per[abs(n)], abs(v))
        tails = np.maximum.accumulate(per[::-1])[::-1]
        assert mat_norm == pytest.approx(tails[0] + 2 * tails[1] + 2 * tails[2], rel=1e-14)


class TestMinModulus:
    def test_shifted_constant(self):
        rep = symbol_min_modulus(SymbolCoeffs(1, {0: 2.0, 1: 1.0}))
        assert rep.min_modulus == pytest.approx(1.0, abs=1e-12)
        assert rep.argmin_xi[0] == pytest.approx(math.pi, abs=1e-12)
        assert rep.certified

    def test_vanishing(self):
        rep = symbol_min_modulus(SymbolCoeffs(1, {0: 1.0, 1: -1.0}))
        assert rep.min_modulus == pytest.approx(0.0, abs=1e-14)
        assert not rep.certified

    def test_constant_symbol(self):
        rep = symbol_min_modulus(SymbolCoeffs(1, {0: 3.5}))
        assert rep.min_modulus == 3.5
        assert rep.slack == 0.0
        assert rep.certified

    def test_grid_validation(self):
        a = SymbolCoeffs(1, {0: 1.0, 5: 0.5})
        with pytest.raises(ValueError):
            symbol_min_modulus(a, grid_size=16)

    def test_d2_symbol(self):
        a = SymbolCoeffs(2, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 1.0})
        coarse = symbol_min_modulus(a)  # minimal grid 12: slack 2pi/12 < min
        assert coarse.min_modulus == pytest.approx(1.0, abs=1e-12)
        assert coarse.slack == pytest.approx(2 * math.pi / 12, rel=1e-15)
        assert coarse.certified
        near = SymbolCoeffs(2, {(0, 0): 2.2, (1, 0): 1.0, (0, 1): 1.0})
        assert not symbol_min_modulus(near).certified  # slack 2pi/12 > min 0.2
        fine = symbol_min_modulus(near, grid_size=64)
        assert fine.min_modulus == pytest.approx(0.2, abs=1e-12)
        assert fine.certified

    def test_d3_slack_counts_every_axis(self):
        # the offset (1, 1, 1) moves the phase by up to 3 pi/G between grid points
        rep = symbol_min_modulus(SymbolCoeffs(3, {(0, 0, 0): 2.0, (1, 1, 1): 1.0}))
        assert rep.grid == 12
        assert rep.slack == pytest.approx(3 * math.pi / 12, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_certified_min_holds_off_grid(self, d):
        rng = np.random.default_rng(d)
        coeffs = {tuple(int(x) for x in n): complex(*rng.uniform(-1, 1, 2))
                  for n in rng.integers(-2, 3, (4, d))}
        coeffs[(0,) * d] = 6.0
        a = SymbolCoeffs(d, coeffs)
        rep = symbol_min_modulus(a, grid_size=48)
        assert rep.certified
        # random points, and points within pi/G of the grid argmin per axis
        xi = np.concatenate([rng.uniform(0, 2 * np.pi, (2000, d)),
                             np.asarray(rep.argmin_xi)
                             + rng.uniform(-np.pi / 48, np.pi / 48, (2000, d))])
        vals = sum(v * np.exp(-1j * xi @ np.asarray(n)) for n, v in a.coeffs.items())
        assert np.abs(vals).min() >= rep.min_modulus - rep.slack

    def test_oracle_dense_evaluation(self):
        a = SymbolCoeffs(1, {-1: 0.3 + 0.1j, 0: 2.0, 2: -0.4})
        rep = symbol_min_modulus(a, grid_size=64)
        xi = 2 * np.pi * np.arange(64) / 64
        vals = sum(v * np.exp(-1j * n[0] * xi) for n, v in a.coeffs.items())
        assert rep.min_modulus == pytest.approx(np.abs(vals).min(), rel=1e-13)


class TestReciprocal:
    def test_geometric_expansion(self):
        b, rep = reciprocal_coeffs(SymbolCoeffs(1, {0: 2.0, 1: 1.0}), tol=1e-10)
        for n in range(0, 25):
            assert abs(b.value(n) - 0.5 * (-0.5) ** n) <= 1e-10
        for n in range(1, 25):
            assert abs(b.value(-n)) <= 1e-12
        assert rep.astar_norm == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        b, _ = reciprocal_coeffs(SymbolCoeffs(1, {0: 4.0}), tol=1e-12)
        assert b.value(0) == pytest.approx(0.25, abs=1e-14)
        mass = sum(abs(v) for n, v in b.coeffs.items() if n != (0,))
        assert mass <= 1e-13

    def test_monomial(self):
        b, _ = reciprocal_coeffs(SymbolCoeffs(1, {1: 1.0}), tol=1e-12)
        assert b.value(-1) == pytest.approx(1.0, abs=1e-12)

    def test_convolution_residual(self):
        a = SymbolCoeffs(1, {-1: 0.5, 0: 3.0, 1: 0.5j})
        b, _ = reciprocal_coeffs(a, tol=1e-11)
        conv = convolve(a, b)
        resid = abs(conv.value(0) - 1.0) + sum(
            abs(v) for n, v in conv.coeffs.items() if n != (0,))
        assert resid <= 1e-10

    def test_vanishing_refused(self):
        with pytest.raises(VanishingSymbolError):
            reciprocal_coeffs(SymbolCoeffs(1, {0: 1.0, 1: -1.0}), tol=1e-8)

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_coeffs(SymbolCoeffs(2, {(0, 0): 2.0}), tol=1e-8)

    @pytest.mark.parametrize("coeffs, match", [
        ({0: 1.0, 1: -1.0}, "not certified positive"),
        # certified at 12 * 2^9, yet the outer-quarter mass stays above 1e-10
        ({0: 1.0, 1: -0.999}, "above tol at grid 786432, the largest within the cap 1048576"),
    ])
    def test_no_grid_above_the_cap(self, monkeypatch, coeffs, match):
        # doubling from 12, a power of two times 3, overshot the cap 2^20 to 1,572,864
        grids = []

        def fold(a, g):
            grids.append(g)
            return real_fold(a, g)

        real_fold = symbols._fold
        monkeypatch.setattr(symbols, "_fold", fold)
        with pytest.raises(VanishingSymbolError, match=re.escape(match)):
            reciprocal_coeffs(SymbolCoeffs(1, coeffs))
        assert max(grids) == 786432

    @pytest.mark.parametrize("c", [1e-310, 1e-308])
    def test_underflowing_symbol_refused(self, c):
        # 1/a_hat (1e-310) or its inverse FFT (1e-308) overflows: numpy warned,
        # then the non-finite coefficients read as a validation error
        with pytest.raises(VanishingSymbolError, match="not finite at grid 32"):
            reciprocal_coeffs(SymbolCoeffs(1, {0: c}))

    @pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
    def test_non_positive_or_non_finite_tol_refused(self, tol):
        # nan doubled the grid to its cap and returned 2^20 coefficients
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            reciprocal_coeffs(SymbolCoeffs(1, {0: 2.0, 1: 1.0}), tol=tol)


class TestConvolutionConsistency:
    def test_toeplitz_product_interior(self):
        # Toeplitz(a) Toeplitz(b) agrees with Toeplitz(a*b) on the interior
        a = SymbolCoeffs(1, {0: 1.0, 1: 0.5})
        b = SymbolCoeffs(1, {-1: 0.25, 0: 2.0})
        win = Window(1, 16)
        prod = multiply(toeplitz_matrix(a, win), toeplitz_matrix(b, win))
        direct = toeplitz_matrix(convolve(a, b), win)
        inner = Window(1, 13)
        assert np.allclose(restrict(prod, inner).data, restrict(direct, inner).data,
                           rtol=0, atol=1e-14)


class TestStabilityCriterion:
    def test_bounded_symbol_stable(self):
        rep = toeplitz_stability_criterion(SymbolCoeffs(1, {0: 2.0, 1: 1.0}), 2.0,
                                           radii=(16, 32), trials=20, seed=0)
        assert rep.verdict == "stable"
        assert all(r.lower >= 0.9 for r in rep.brackets)

    def test_vanishing_symbol_degrading(self):
        rep = toeplitz_stability_criterion(SymbolCoeffs(1, {0: 1.0, 1: -1.0}), 2.0,
                                           radii=(16, 32), trials=20, seed=0)
        assert rep.verdict == "degrading"
        assert rep.brackets[-1].lower < rep.brackets[0].lower

    def test_uncertified_positive_minimum_inconclusive(self):
        # grid minimum 0.001 at xi = 0, below the default grid's slack of about 0.26
        rep = toeplitz_stability_criterion(SymbolCoeffs(1, {0: 1.0, 1: -0.999}), 2.0,
                                           radii=(8, 16), trials=5, seed=0)
        assert rep.verdict == "inconclusive"
        mm = rep.min_modulus
        assert not mm.certified and 0.0 < mm.min_modulus < mm.slack

    def test_constant_symbol(self):
        rep = toeplitz_stability_criterion(SymbolCoeffs(1, {0: 1.0}), 2.0,
                                           radii=(8,), trials=5, seed=0)
        assert rep.verdict == "stable"
        assert rep.brackets[0].lower == pytest.approx(1.0, abs=1e-12)
        assert rep.brackets[0].upper == pytest.approx(1.0, abs=1e-12)


class TestStabilityCriterionWeight:
    def test_table_short_of_the_ladder_refused_before_any_bracket(self, monkeypatch):
        monkeypatch.setattr(symbols, "stability_bracket",
                            lambda *a, **k: pytest.fail("bracket ran"))
        w = WeightSequence.table(Window(1, 16), np.full(33, 2.0))
        with pytest.raises(ValueError, match="not a sub-window"):
            toeplitz_stability_criterion(SymbolCoeffs(1, {0: 2.0, 1: 1.0}), 2.0, w,
                                         radii=(8, 16, 32))

    def test_one_weight_restricted_to_each_radius(self):
        a = SymbolCoeffs(1, {0: 2.0, 1: 1.0})
        top = Window(1, 32)
        w = WeightSequence.table(top, 1.0 + 0.5 * np.cos(top.indices[:, 0]))
        rep = toeplitz_stability_criterion(a, 4.0, w, radii=(16, 32), trials=10, seed=3)
        for r, got in zip((16, 32), rep.brackets):
            win = Window(1, r)
            want = stability_bracket(toeplitz_matrix(a, win), 4.0, w.restrict(win),
                                     trials=10, seed=3)
            assert (got.weight_id, got.lower, got.upper) == (want.weight_id, want.lower, want.upper)

    def test_default_weight_is_trivial(self):
        a = SymbolCoeffs(1, {0: 1.0, 1: -1.0})
        plain = toeplitz_stability_criterion(a, 2.0, radii=(8, 16))
        trivial = toeplitz_stability_criterion(a, 2.0, WeightSequence.trivial(Window(1, 16)),
                                               radii=(8, 16))
        assert [(r.weight_id, r.lower, r.upper) for r in plain.brackets] == \
            [(r.weight_id, r.lower, r.upper) for r in trivial.brackets]


def _fields(report):
    """Every field of a report, NaN made comparable, for exact equality."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                 for v in dataclasses.astuple(report))


# per dimension: doubling, non-doubling, and unsorted with a repeated radius
_LADDERS = {1: [(8, 16, 32, 64), (6, 10, 16), (32, 8, 16, 16)],
            2: [(2, 4, 8), (3, 5, 8), (8, 2, 4, 4)]}
_SYMBOLS = {1: [SymbolCoeffs(1, {0: 2.0, 1: 1.0}), SymbolCoeffs(1, {0: 1.0, 1: -1j})],
            2: [SymbolCoeffs(2, {(0, 0): 4.0, (1, 0): 1.0, (0, -1): -1.0}),
                SymbolCoeffs(2, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 1j})]}


def _ladder_weight(kind, top):
    if kind == "trivial":
        return WeightSequence.trivial(top)
    if kind == "power":
        return WeightSequence.power(top, 0.5)
    if kind == "outside":  # 16^k along the first axis: every q != 2 rung reads inconclusive
        return WeightSequence.table(top, 16.0 ** top.indices[:, 0].astype(float))
    return WeightSequence.table(top, 1.0 + 0.5 * np.cos(top.indices.sum(axis=1)))


class TestSharedLadder:
    """The rungs reuse sigma pairs; every bracket is still its own call's."""

    @pytest.mark.parametrize("kind", ["trivial", "power", "table", "outside"])
    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("d, ladder", [(d, r) for d in (1, 2) for r in _LADDERS[d]])
    def test_rungs_equal_separate_brackets(self, d, ladder, q, kind):
        w = _ladder_weight(kind, Window(d, max(ladder)))
        for a in _SYMBOLS[d]:  # real, then complex
            rep = toeplitz_stability_criterion(a, q, w, ladder, trials=3, seed=5)
            for r, got in zip(ladder, rep.brackets):
                win = Window(d, r)
                want = stability_bracket(toeplitz_matrix(a, win), q, w.restrict(win),
                                         trials=3, seed=5)
                assert _fields(got) == _fields(want)

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_doubling_ladder_makes_one_svd_per_window(self, monkeypatch, q):
        # 64, 128 ... as 8, 16, 32, 64: windows 4, 8, 16, 32, 64, not 4 + 4 halves and fulls
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **k: calls.append(m.shape) or svd(m, **k))
        a = SymbolCoeffs(1, {0: 2.0, 1: 1.0})
        toeplitz_stability_criterion(a, q, radii=(8, 16, 32, 64), trials=3)
        assert len(calls) == 5
        toeplitz_stability_criterion(a, q, radii=(8, 16, 32, 64), trials=3)
        assert len(calls) == 10  # nothing carried over from the first call
        assert lattice._SHARED.get() is None

    def test_doubling_ladder_makes_one_aq_scan_per_window(self, monkeypatch):
        # rung R's half-window scan is rung R/2's full scan: 5 scans, not 8
        calls = []
        scan = stability.aq_bound
        monkeypatch.setattr(stability, "aq_bound",
                            lambda w, q, n_cap: calls.append(w.window.radius) or scan(w, q, n_cap))
        a = SymbolCoeffs(1, {0: 2.0, 1: 1.0})
        rep = toeplitz_stability_criterion(a, 4.0, radii=(8, 16, 32, 64), trials=3)
        assert sorted(calls) == [4, 8, 16, 32, 64]
        assert [b.verdict for b in rep.brackets] == ["stable"] * 4
        assert lattice._SHARED.get() is None

    def test_pairs_dropped_when_a_rung_fails(self, monkeypatch):
        def fail(*args, **kwargs):
            assert lattice._SHARED.get() == {"sigma": (a, {}), "constants": (None, {})}
            raise ArithmeticError("rung failed")

        a = SymbolCoeffs(1, {0: 2.0})
        monkeypatch.setattr(symbols, "stability_bracket", fail)
        with pytest.raises(ArithmeticError, match="rung failed"):
            toeplitz_stability_criterion(a, 2.0, radii=(8,))
        assert lattice._SHARED.get() is None

    @pytest.mark.parametrize("d, radius", [(1, 16), (1, 9), (2, 4), (2, 3)])
    def test_restricted_window_is_the_smaller_toeplitz_matrix(self, d, radius):
        # what lets the half-radius sigma_min of rung R stand for rung R/2's
        for a in _SYMBOLS[d]:
            half = Window(d, radius // 2)
            got = restrict(toeplitz_matrix(a, Window(d, radius)), half).data
            want = toeplitz_matrix(a, half).data
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestIndices:
    @pytest.mark.parametrize("d, coeffs", [(1, {0.5: 1.0}), (1, {(1.5,): 2.0}),
                                           (1, {math.nan: 1.0}),
                                           (2, {(0, 0): 3.0, (0.9, 0): 1.0}),
                                           (2, {(1, -2.5): 1.0})])
    def test_non_integral_index_refused(self, d, coeffs):
        # (0.9, 0) was truncated onto (0, 0), merged and kept as 1; 0.5 raised TypeError
        with pytest.raises(ValueError, match="is not an integer"):
            SymbolCoeffs(d, coeffs)

    def test_integral_float_index_is_the_integer(self):
        assert SymbolCoeffs(1, {2.0: 1.0, (-1.0,): 2.0}).coeffs == {(2,): 1.0, (-1,): 2.0}
        a = SymbolCoeffs(2, {(1.0, 0): 1.0})
        assert a.coeffs == {(1, 0): 1.0}
        assert a.value((1, 0.0)) == 1.0
        with pytest.raises(ValueError, match="is not an integer"):
            a.value((1, 0.5))

    @pytest.mark.parametrize("coeffs, index", [({0: 2.0, (0,): 1.0}, "(0,)"),
                                               ({(0,): 2.0, 0: 0.0}, "(0,)"),
                                               ({np.int64(3): 1.0, (3.0,): 1.0}, "(3,)")])
    def test_two_keys_at_one_index_refused(self, coeffs, index):
        # the last key won: {0: 2.0, (0,): 1.0} read as {(0,): 1}; a zero one dropped the other
        with pytest.raises(ValueError, match=re.escape(f"two coefficient rows at index {index}")):
            SymbolCoeffs(1, coeffs)

    def test_pairs_read_as_a_dict(self):
        pairs = [(0, 2.0), ((1,), 1.0), (-1, 0.0)]
        assert SymbolCoeffs(1, pairs).coeffs == SymbolCoeffs(1, dict(pairs)).coeffs
        assert SymbolCoeffs(2, iter([((1, 0), 1j)])).coeffs == {(1, 0): 1j}

    @pytest.mark.parametrize("d, pairs, index", [(1, [(0, 2.0), (0, 1.0)], "(0,)"),
                                                 (2, [((1, 0), 1.0), ((1, 0), 0.0)], "(1, 0)")])
    def test_two_pairs_at_one_index_refused(self, d, pairs, index):
        with pytest.raises(ValueError, match=re.escape(f"two coefficient rows at index {index}")):
            SymbolCoeffs(d, pairs)

    @pytest.mark.parametrize("d, key", [(2, 1), (1, (0, 1)), (2, (1,)), (2, ((0, 1),))])
    def test_index_of_the_wrong_shape_refused(self, d, key):
        with pytest.raises(ValueError, match="for d=|does not match d="):
            SymbolCoeffs(d, {key: 1.0})


class TestSerialization:
    def test_roundtrip(self):
        a = SymbolCoeffs(1, {-2: 1 + 2j, 0: 3.0, 5: -0.25})
        doc = symbol_to_dict(a)
        assert doc == {"d": 1, "coeffs": [[-2, 1.0, 2.0], [0, 3.0, 0.0], [5, -0.25, 0.0]]}
        back = symbol_from_dict(doc)
        assert back.coeffs == a.coeffs

    def test_d2_roundtrip(self):
        a = SymbolCoeffs(2, {(1, -1): 2j})
        back = symbol_from_dict(symbol_to_dict(a))
        assert back.value((1, -1)) == 2j

    def test_bad_row(self):
        with pytest.raises(ValueError):
            symbol_from_dict({"d": 2, "coeffs": [[1, 0.5, 0.0]]})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficient_refused(self, value):
        with pytest.raises(ValueError, match="not finite"):
            SymbolCoeffs(1, {0: 1.0, 1: value})
        with pytest.raises(ValueError, match="not finite"):
            symbol_from_dict({"d": 1, "coeffs": [[1, complex(value).real, complex(value).imag]]})


class TestParse:
    def test_simple(self):
        a = parse_coeffs("2@0,1@1")
        assert a.value(0) == 2.0 and a.value(1) == 1.0

    def test_complex_and_negative(self):
        a = parse_coeffs("1+2j@-1,-0.5@3")
        assert a.value(-1) == 1 + 2j
        assert a.value(3) == -0.5

    def test_d2(self):
        a = parse_coeffs("3@0,0;1@1,0", d=2)
        assert a.value((0, 0)) == 3.0
        assert a.value((1, 0)) == 1.0

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_coeffs("2")

    @pytest.mark.parametrize("text, d, index", [("2@0,1@0", 1, "(0,)"),
                                                ("2@0,1@1,-3@1", 1, "(1,)"),
                                                ("1@0,0;2@0,0", 2, "(0, 0)")])
    def test_repeated_index_refused(self, text, d, index):
        # the last item won: "2@0,1@0" read as {(0,): 1}, while a file's rows were refused
        with pytest.raises(ValueError, match=re.escape(f"two coefficient rows at index {index}")):
            parse_coeffs(text, d)
        rows = [[*map(int, item.split("@")[1].split(",")), float(item.split("@")[0]), 0.0]
                for item in text.split(";" if d > 1 else ",")]
        with pytest.raises(ValueError, match=re.escape(f"two coefficient rows at index {index}")):
            symbol_from_dict({"d": d, "coeffs": rows})
