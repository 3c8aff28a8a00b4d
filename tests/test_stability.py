import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from offdiag import lattice, spectral, stability, symbols
from offdiag.lattice import LatticeSequence, LocalizedMatrix, Window, generate
from offdiag.muckenhoupt import WeightSequence, aq_bound
from offdiag.spectral import two_diagonal_extremes
from offdiag.stability import (PartitionOperator, boundedness_check,
                               commutator_diagnostic, cross_stability_verdicts,
                               stability_bracket)
from offdiag.weights import WeightMatrix


def toeplitz(win, coeffs):
    return generate("toeplitz_from_coeffs", win, coeffs=coeffs)


def oracle_sigma(a, w, band):
    """Independent construction of the conjugated interior submatrix."""
    win = a.window
    sq = np.sqrt(w.values)
    conj = np.diag(sq) @ a.data @ np.diag(1.0 / sq)
    mask = np.abs(win.indices).max(axis=1) <= win.radius - band
    s = np.linalg.svd(conj[:, mask], compute_uv=False)
    return s[-1], s[0]


class TestBracket:
    def test_identity(self):
        win = Window(1, 16)
        rep = stability_bracket(generate("identity", win), 2.0, WeightSequence.trivial(win))
        assert rep.lower == rep.upper == 1.0
        assert rep.verdict == "stable"
        assert rep.method == "svd"

    def test_bounded_symbol_bracket(self):
        # symbol 2 + e^{-ix}: modulus range [1, 3]
        win = Window(1, 64)
        rep = stability_bracket(toeplitz(win, {0: 2.0, 1: 1.0}), 2.0,
                                WeightSequence.trivial(win))
        assert rep.lower >= 1.0 - 1e-9
        assert rep.upper <= 3.0 + 1e-9
        assert rep.verdict == "stable"

    def test_matches_svd_oracle(self):
        win = Window(1, 32)
        rng = np.random.default_rng(3)
        ix = win.indices
        band = np.abs(ix[:, None] - ix[None]).max(-1) <= 2
        a = LocalizedMatrix(win, np.eye(win.size) + 0.3 * rng.standard_normal((win.size, win.size))
                            * band)
        w = WeightSequence.power(win, 0.5)
        rep = stability_bracket(a, 2.0, w, band=4)
        lo, hi = oracle_sigma(a, w, 4)
        assert rep.lower == pytest.approx(lo, abs=1e-8)
        assert rep.upper == pytest.approx(hi, abs=1e-8)

    @pytest.mark.parametrize("coeffs", [{0: 2.0, 1: 1.0}, {0: 1.0, 1: -1.0}])
    @pytest.mark.parametrize("radius", [16, 64])
    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_real_path_matches_complex_path(self, monkeypatch, coeffs, radius, alpha):
        # e^{0.7i} A has the singular values of A but takes the complex SVD
        win = Window(1, radius)
        a = toeplitz(win, coeffs)
        rot = LocalizedMatrix(win, np.exp(0.7j) * a.data)
        w = WeightSequence.trivial(win) if alpha is None else WeightSequence.power(win, alpha)
        svd, dtypes = np.linalg.svd, []

        def spy(m, **kw):
            dtypes.append(m.dtype)
            return svd(m, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        real, cplx = stability_bracket(a, 2.0, w), stability_bracket(rot, 2.0, w)
        assert dtypes == [np.float64] * 2 + [np.complex128] * 2  # full and half radius
        for field in ("lower", "upper", "cert_lower_full", "cert_lower_half"):
            assert abs(getattr(cplx, field) - getattr(real, field)) <= 1e-13 * real.upper
        assert cplx.verdict == real.verdict

    def test_vanishing_symbol_degrades(self):
        sig = {}
        for r in (32, 256):
            win = Window(1, r)
            rep = stability_bracket(toeplitz(win, {0: 1.0, 1: -1.0}), 2.0,
                                    WeightSequence.trivial(win))
            sig[r] = rep.lower
            assert rep.verdict == "degrading"
        assert sig[256] < sig[32] / 4.0

    def test_sampled_path_for_other_q(self):
        win = Window(1, 24)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        rep = stability_bracket(a, 4.0, WeightSequence.trivial(win), trials=40, seed=1)
        assert rep.method == "sampled"
        assert rep.lower <= rep.upper
        assert rep.verdict == "stable"  # inherited from the q=2 certificate

    def test_empty_interior_rejected(self):
        win = Window(1, 8)
        a = generate("identity", win)
        with pytest.raises(ValueError):
            stability_bracket(a, 2.0, WeightSequence.trivial(win), band=8)

    def test_q_validation(self):
        win = Window(1, 8)
        a = generate("identity", win)
        with pytest.raises(ValueError):
            stability_bracket(a, 0.5, WeightSequence.trivial(win))
        with pytest.raises(ValueError):
            stability_bracket(a, math.inf, WeightSequence.trivial(win))

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_trials_below_one_rejected(self, q):
        # at q != 2 no probe would run, and lower would stay inf
        win = Window(1, 8)
        a = generate("identity", win)
        with pytest.raises(ValueError, match="trials"):
            stability_bracket(a, q, WeightSequence.trivial(win), trials=0)

    def test_default_band_is_twice_the_bandwidth(self):
        # the default band is twice the largest ring above 1e-12; at radius 8
        # the R - 1 cap (7) does not bind
        win, win2 = Window(1, 8), Window(2, 8)
        for a, width in ((generate("identity", win), 0),
                         (toeplitz(win, {0: 1.0, 3: 0.5}), 3),
                         (LocalizedMatrix(win, np.zeros((17, 17))), 0),
                         (toeplitz(win2, {(0, 0): 1.0, (1, -3): 0.5}), 3),
                         (toeplitz(win2, {(0, 0): 1.0, (-2, 1): 1e-13}), 0)):
            rep = stability_bracket(a, 2.0, WeightSequence.trivial(a.window))
            assert rep.probe_band == 2 * width

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_negative_band_rejected(self, q):
        # a negative band would make every point of the window interior
        win = Window(1, 16)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        with pytest.raises(ValueError, match="band must be >= 0"):
            stability_bracket(a, q, WeightSequence.trivial(win), band=-3)


class TestCrossVerdicts:
    @staticmethod
    def pairs(win):
        trivial = WeightSequence.trivial(win)
        return [(1.0, trivial), (2.0, trivial), (2.0, WeightSequence.power(win, 1.0)),
                (4.0, trivial)]

    def test_bounded_family_all_stable(self):
        win = Window(1, 48)
        res = cross_stability_verdicts(toeplitz(win, {0: 2.0, 1: 1.0}), self.pairs(win),
                                       trials=30, seed=0)
        assert res.consistent
        assert {r.verdict for r in res.reports} == {"stable"}

    def test_vanishing_family_all_degrading(self):
        win = Window(1, 48)
        res = cross_stability_verdicts(toeplitz(win, {0: 1.0, 1: -1.0}), self.pairs(win),
                                       trials=30, seed=0)
        assert res.consistent
        assert {r.verdict for r in res.reports} == {"degrading"}

    def test_identity_all_stable_lower_one(self):
        win = Window(1, 32)
        res = cross_stability_verdicts(generate("identity", win), self.pairs(win),
                                       trials=30, seed=0)
        assert res.consistent
        for rep in res.reports:
            assert rep.verdict == "stable"
            if rep.method == "svd":
                assert rep.lower == pytest.approx(1.0, abs=1e-12)

    def test_empty_pairs_rejected(self):
        # no reports would make a verdict about nothing
        win = Window(1, 16)
        with pytest.raises(ValueError, match="no \\(q, weight\\) pairs"):
            cross_stability_verdicts(generate("identity", win), [])


def _fields(report):
    """Every field of a report, NaN made comparable, for exact equality."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                 for v in dataclasses.astuple(report))


def _exponential(win, base=16.0):
    """The table w_k = base^k along the first axis: far outside every A_q."""
    return WeightSequence.table(win, base ** win.indices[:, 0].astype(float))


class TestAqGate:
    """A q != 2 verdict transfers the trivial-weight one only while the A_q scan
    at R stays within twice the scan at R/2."""

    @pytest.mark.parametrize("radius", [16, 64])
    @pytest.mark.parametrize("coeffs, transferred", [({0: 2.0, 1: 1.0}, "stable"),
                                                     ({0: 1.0, 1: -1.0}, "degrading")])
    @pytest.mark.parametrize("weight", ["16^k", "power:3.5"])
    def test_outside_aq_is_inconclusive(self, weight, coeffs, transferred, radius):
        # the transfer read 2I + S stable and I - S degrading, though under 16^k the
        # w^{1/4}-conjugate of I - S is I - 2S, bounded below by 1 on interior probes
        win = Window(1, radius)
        a = toeplitz(win, coeffs)
        w = _exponential(win) if weight == "16^k" else WeightSequence.power(win, 3.5)
        rep = stability_bracket(a, 4.0, w, trials=5)
        assert rep.verdict == "inconclusive"
        assert stability_bracket(a, 4.0, WeightSequence.trivial(win), trials=5).verdict \
            == transferred

    @pytest.mark.parametrize("coeffs, verdict", [({0: 2.0, 1: 1.0}, "stable"),
                                                 ({0: 1.0, 1: -1.0}, "degrading")])
    def test_inside_aq_keeps_the_transfer(self, coeffs, verdict):
        # power:2.5 is in A_4 (-1 < alpha < 3): its scan grows 1.4-1.6x per doubling
        win = Window(1, 64)
        rep = stability_bracket(toeplitz(win, coeffs), 4.0, WeightSequence.power(win, 2.5),
                                trials=5)
        assert rep.verdict == verdict

    def test_cross_pair_inconsistent(self):
        # q = 2 keeps its own weighted SVD verdict; q = 4 no longer copies it
        win = Window(1, 16)
        w = _exponential(win)
        res = cross_stability_verdicts(toeplitz(win, {0: 2.0, 1: 1.0}), [(2.0, w), (4.0, w)],
                                       trials=5)
        assert [r.verdict for r in res.reports] == ["stable", "inconclusive"]
        assert not res.consistent


class TestCrossSharesSigmaPairs:
    """One decomposition per operand within a call; each report still its own call's."""

    @staticmethod
    def matrices(d):
        win = Window(d, 12 if d == 1 else 4)
        if d == 1:
            return [toeplitz(win, {0: 2.0, 1: 1.0}), toeplitz(win, {0: 1.0, 1: -1j})]
        return [toeplitz(win, {(0, 0): 4.0, (1, 0): 1.0}),
                toeplitz(win, {(0, 0): 3.0, (0, 1): 1j, (-1, 1): 0.5})]

    @staticmethod
    def table(win, phase):
        return WeightSequence.table(win, 1.5 + 0.5 * np.cos(win.indices.sum(axis=1) + phase))

    @pytest.mark.parametrize("d", [1, 2])
    def test_reports_equal_separate_brackets(self, d):
        for a in self.matrices(d):  # real, then complex
            win = a.window
            trivial = WeightSequence.trivial(win)
            pairs = [(q, w) for q in (1.0, 2.0, 4.0)
                     for w in (trivial, WeightSequence.power(win, 0.5), self.table(win, 0.0))]
            res = cross_stability_verdicts(a, pairs, trials=3, seed=2)
            for k, ((q, w), got) in enumerate(zip(pairs, res.reports)):
                want = stability_bracket(a, q, w, trials=3, seed=2 + k)
                assert _fields(got) == _fields(want)

    def test_tables_sharing_a_descriptor_stay_apart(self):
        a = self.matrices(1)[0]
        t0, t1 = self.table(a.window, 0.0), self.table(a.window, 1.0)
        assert t0.descriptor == t1.descriptor == "table(R=12)"
        pairs = [(2.0, t0), (2.0, t1), (2.0, t0)]
        res = cross_stability_verdicts(a, pairs, trials=3)
        assert res.reports[0].lower != res.reports[1].lower
        for k, ((q, w), got) in enumerate(zip(pairs, res.reports)):
            assert _fields(got) == _fields(stability_bracket(a, q, w, trials=3, seed=k))

    def test_probe_band_keys_the_pair(self):
        # the two callers derive one band per window; an explicit band must not alias
        a = self.matrices(1)[1]
        w = WeightSequence.power(a.window, 0.5)
        with lattice.sharing("sigma", a):
            got = [stability_bracket(a, 2.0, w, band=b) for b in (2, 4)]
        assert [_fields(r) for r in got] == \
            [_fields(stability_bracket(a, 2.0, w, band=b)) for b in (2, 4)]

    def test_trivial_operands_decomposed_once(self, monkeypatch):
        # the suite's C09 pairs: 1, 2, 4 trivial and 2 power(1); 8 SVDs before
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **k: calls.append(m.shape) or svd(m, **k))
        win = Window(1, 24)
        cross_stability_verdicts(toeplitz(win, {0: 2.0, 1: 1.0}), TestCrossVerdicts.pairs(win),
                                 trials=3)
        assert len(calls) == 4
        assert lattice._SHARED.get() is None


class TestSigmaPairScratch:
    """The interior-only conjugation: the full conjugate's bits, a fraction of its memory."""

    @staticmethod
    def full_conjugate_pair(a, w, band):
        """Reference: conjugate every column, then take the interior ones."""
        sq = np.sqrt(w.values)
        conj = (sq[:, None] * a.data) / sq[None, :]
        s = np.linalg.svd(conj[:, stability._interior_mask(a.window, band)], compute_uv=False)
        return float(s[-1]), float(s[0])

    @pytest.mark.parametrize("d", [1, 2])
    def test_bits_match_full_conjugate(self, d):
        for a in TestCrossSharesSigmaPairs.matrices(d):  # real, then complex
            win = a.window
            for w in (WeightSequence.trivial(win), WeightSequence.power(win, 0.5),
                      TestCrossSharesSigmaPairs.table(win, 0.0)):
                for band in (0, 2):
                    assert stability._sigma_pair(a, w, band, win, None) == \
                        self.full_conjugate_pair(a, w, band)

    def test_q2_bracket_holds_one_interior_copy(self):
        # a complex operand: its decay profile and conjugate are the largest
        # steps; the full conjugate and its temporary were two n x n arrays
        win = Window(1, 256)
        a = toeplitz(win, {0: 3.0, 1: 1 + 1j, -1: 0.5j})
        w = WeightSequence.power(win, 0.5)
        band = 2 * stability._bandwidth(lattice.decay_profile(a))
        n, m = win.size, int(stability._interior_mask(win, band).sum())
        tracemalloc.start()
        try:
            stability_bracket(a, 2.0, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * m + (1 << 18)

    @staticmethod
    def traced_peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d, radius, band", [(1, 256, 0), (1, 256, 4), (2, 12, 0)])
    def test_trivial_weight_copies_no_interior_columns(self, d, radius, band):
        # interior columns in one run at weight 1 go to LAPACK as a view, so
        # only O(n) scratch is traced, not an n x m copy
        win = Window(d, radius)
        one = (1,) + (0,) * (d - 1)
        for a in (toeplitz(win, {(0,) * d: 2.0, one: 1.0}),
                  toeplitz(win, {(0,) * d: 2.0, one: 1j})):
            for w in (WeightSequence.trivial(win), WeightSequence.table(win, np.ones(win.size))):
                peak = self.traced_peak(lambda: stability._sigma_pair(a, w, band, win, None))
                assert peak <= 64 * win.size

    def test_q4_bracket_makes_no_complex_copy_of_a_real_operand(self, monkeypatch):
        # a complex copy of the operand for the probes is 2 real n x n arrays;
        # an 8 KiB chunk keeps the decay profile's buffer (half an array here) out
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", 8 << 10)
        win = Window(1, 256)
        a = toeplitz(win, {0: 2.0, 1: 1.0})
        assert a.data.dtype == np.float64
        peak = self.traced_peak(
            lambda: stability_bracket(a, 4.0, WeightSequence.trivial(win), trials=20))
        assert peak < 1.5 * 8 * win.size**2


EPS = np.finfo(float).eps


def two_diagonal(win, offset, top, bot):
    """The d = 1 operand with entries top[j] at (j + offset, j) and bot[j] at
    (j + offset + 1, j), each dropped where its row leaves the window."""
    n = win.size
    data = np.zeros((n, n), dtype=np.result_type(top, bot))
    j = np.arange(n)
    for k, v in ((offset, top), (offset + 1, bot)):
        ok = (j + k >= 0) & (j + k < n)
        data[j[ok] + k, j[ok]] = v[ok]
    return LocalizedMatrix(win, data)


class TestTwoDiagonalKernel:
    """The Sturm kernel behind sigma pairs of large two-diagonal d = 1 windows."""

    @staticmethod
    def spy(monkeypatch):
        """Record what each ``two_diagonal_extremes`` call returns."""
        got, kernel = [], stability.two_diagonal_extremes
        monkeypatch.setattr(stability, "two_diagonal_extremes",
                            lambda t, b: got.append(kernel(t, b)) or got[-1])
        return got

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, -1.0), (0.5 + 1j, 2j)])
    @pytest.mark.parametrize("radius", [128, 256, 512])
    def test_closed_form(self, a, b, radius):
        # a + bS on the band-2 interior: sigma^2 = |a|^2 + |b|^2 -+ 2|ab| cos(pi / (m + 1))
        m = 2 * radius - 3
        lo, hi = two_diagonal_extremes(np.full(m, a), np.full(m, b))
        mid, off = abs(a) ** 2 + abs(b) ** 2, 2 * abs(a * b) * math.cos(math.pi / (m + 1))
        assert abs(lo**2 - (mid - off)) <= 8 * EPS * hi**2
        assert abs(hi**2 - (mid + off)) <= 8 * EPS * hi**2

    @pytest.mark.parametrize("radius", [256, 512])
    def test_bracket_takes_the_kernel(self, monkeypatch, radius):
        got = self.spy(monkeypatch)
        win = Window(1, radius)
        rep = stability_bracket(toeplitz(win, {0: 1.0, 1: -1.0}), 2.0,
                                WeightSequence.trivial(win))
        m = 2 * radius - 3
        assert (rep.lower, rep.upper) == got[0] == \
            two_diagonal_extremes(np.full(m, 1.0), np.full(m, -1.0))

    @pytest.mark.parametrize("radius", [160, 256])
    @pytest.mark.parametrize("offset", [-2, 0, 3])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_random_operands_match_the_svd(self, monkeypatch, radius, offset, complex_):
        rng = np.random.default_rng(radius + offset)
        win = Window(1, radius)
        top, bot = rng.uniform(1.5, 2.5, win.size), rng.uniform(-1.0, 1.0, win.size)
        if complex_:
            top, bot = (v * np.exp(2j * np.pi * rng.random(win.size)) for v in (top, bot))
        a = two_diagonal(win, offset, top, bot)
        assert stability._two_diagonals(lattice.weighted_pass(a)[1]) == offset
        band = 2 * stability._bandwidth(lattice.decay_profile(a))
        got = self.spy(monkeypatch)
        for w in (WeightSequence.trivial(win), WeightSequence.power(win, 0.5),
                  TestCrossSharesSigmaPairs.table(win, 0.0)):
            lo, hi = stability._sigma_pair(a, w, band, win, offset)
            assert got.pop() == (lo, hi)  # the kernel resolved the pair
            want_lo, want_hi = TestSigmaPairScratch.full_conjugate_pair(a, w, band)
            # 16 eps is the kernel's bound; the SVD's own sigma_max errs by up
            # to 14 eps here against an extended-precision bisection
            assert abs(lo**2 - want_lo**2) <= 64 * EPS * want_hi**2
            assert abs(hi**2 - want_hi**2) <= 64 * EPS * want_hi**2

    @pytest.mark.parametrize("radius", [256, 512])
    @pytest.mark.parametrize("coeffs", ["2@0,1@1", "1@0,-1@1"])
    def test_verdicts_match_the_svd_path(self, monkeypatch, coeffs, radius):
        sym = symbols.parse_coeffs(coeffs)

        def brackets():
            return [b for q in (2.0, 4.0) for b in symbols.toeplitz_stability_criterion(
                sym, q, radii=(radius,), trials=10).brackets]

        sturm = brackets()
        monkeypatch.setattr(stability, "_STURM_COLUMNS", math.inf)
        dense = brackets()
        assert [b.verdict for b in sturm] == [b.verdict for b in dense]
        for s, d in zip(sturm, dense):
            for field in ("lower", "upper", "cert_lower_full", "cert_lower_half"):
                assert getattr(s, field) == pytest.approx(getattr(d, field), rel=1e-9)

    def test_zero_entry_decouples_the_gram(self, monkeypatch):
        # filterwarnings = error: a 0/0 or a divide warning would fail here
        win = Window(1, 160)
        top, bot = np.full(win.size, 2.0), np.full(win.size, 1.0)
        bot[win.size // 2] = 0.0  # beta = 0 in the interior: two uncoupled blocks
        a = two_diagonal(win, 0, top, bot)
        got = self.spy(monkeypatch)
        lo, hi = stability._sigma_pair(a, WeightSequence.trivial(win), 2, win, 0)
        assert got == [(lo, hi)]
        want_lo, want_hi = TestSigmaPairScratch.full_conjugate_pair(
            a, WeightSequence.trivial(win), 2)
        assert abs(lo**2 - want_lo**2) <= 16 * EPS * want_hi**2
        assert abs(hi**2 - want_hi**2) <= 16 * EPS * want_hi**2

    def test_zero_pivots_count_exactly(self):
        # T = tridiag(1, 2, 1), m = 4: eigenvalues 2 + 2 cos(k pi / 5); a shift of 2
        # makes the first pivot 0, the second infinite, the third finite again;
        # filterwarnings = error, so the divide-by-zero must not warn
        alpha, beta2 = np.full(4, 2.0), np.ones(3)
        eig = np.linalg.eigvalsh(np.diag(alpha) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1))
        shifts = np.array([-1.0, 0.5, 2.0, 2.0 + 1e-300, 3.0, 5.0])
        want = [(eig < c).sum() for c in shifts]
        assert list(spectral._sturm_counts(alpha, beta2, shifts)) == want

    @pytest.mark.parametrize("small", [0.0, 1e-6])
    def test_unresolved_sigma_min_takes_the_svd(self, monkeypatch, small):
        # a column of norm `small` puts lambda_min below 2^-23 lambda_max; the
        # SVD's bits come back, with no warning (filterwarnings = error)
        win = Window(1, 160)
        top, bot = np.full(win.size, 2.0), np.full(win.size, 1.0)
        top[win.size // 2] = bot[win.size // 2] = small
        a = two_diagonal(win, 0, top, bot)
        w = WeightSequence.power(win, 0.5)
        got = self.spy(monkeypatch)
        assert stability._sigma_pair(a, w, 2, win, 0) == \
            TestSigmaPairScratch.full_conjugate_pair(a, w, 2)
        assert got == [None]

    def test_non_finite_or_zero_input_is_unresolved(self):
        ones = np.ones(300)
        assert two_diagonal_extremes(np.zeros(300), np.zeros(300)) is None
        assert two_diagonal_extremes(np.where(np.arange(300) == 7, np.nan, 1.0), ones) is None
        assert two_diagonal_extremes(ones, np.where(np.arange(300) == 7, np.inf, 1.0)) is None

    def test_switch_reads_the_pattern_and_size(self, monkeypatch):
        got = self.spy(monkeypatch)
        for win, coeffs in ((Window(1, 256), {0: 2.0}),  # one diagonal
                            (Window(1, 256), {-1: 1.0, 1: 1.0}),  # not adjacent
                            (Window(1, 256), {-1: 0.5, 0: 2.0, 1: 1.0}),  # three
                            (Window(1, 128), {0: 2.0, 1: 1.0}),  # 253 interior columns
                            (Window(2, 12), {(0, 0): 4.0, (1, 0): 1.0})):  # d = 2
            stability_bracket(toeplitz(win, coeffs), 2.0, WeightSequence.trivial(win))
        assert got == []

    def test_switched_pair_holds_no_square_array(self, monkeypatch):
        # the SVD path hands LAPACK an n x m copy (allocated inside numpy's
        # linalg, so tracemalloc does not see it); the kernel holds O(n) and a
        # fixed block of pivots, under a sixteenth of one n x n float64 array
        got = self.spy(monkeypatch)
        win = Window(1, 512)
        n = win.size
        for a in (toeplitz(win, {0: 2.0, 1: 1.0}), toeplitz(win, {0: 1.0, 1: 1j})):
            for w in (WeightSequence.trivial(win), WeightSequence.power(win, 0.5)):
                peak = TestSigmaPairScratch.traced_peak(
                    lambda: stability._sigma_pair(a, w, 2, win, 0))
                assert got.pop() is not None
                assert peak < 8 * n * n / 16


class TestBoundedness:
    def test_identity_trivial(self):
        win = Window(1, 12)
        rep = boundedness_check(generate("identity", win), 2.0,
                                WeightSequence.trivial(win), 1.0,
                                WeightMatrix.trivial(1), trials=10, seed=0)
        assert rep.constant >= 1.0
        assert rep.worst_margin >= 0.0

    def test_shift_l2(self):
        # constant 2^2 3^{1/2} A_2^{1/2} C_1 ||S||_ring = 4 sqrt(3) * 3 vs lhs <= 1
        win = Window(1, 16)
        rep = boundedness_check(generate("shift", win), 2.0,
                                WeightSequence.trivial(win), 1.0,
                                WeightMatrix.trivial(1), trials=10, seed=1)
        assert rep.constant == pytest.approx(4.0 * math.sqrt(3.0) * 3.0, rel=1e-12)
        assert rep.worst_margin >= 0.0

    def test_zero_probe(self):
        win = Window(1, 8)
        a = LocalizedMatrix(win, np.zeros((win.size, win.size)))
        rep = boundedness_check(a, 1.0, WeightSequence.trivial(win), 1.0,
                                WeightMatrix.trivial(1), trials=3, seed=2)
        assert rep.worst_margin >= 0.0

    def test_trials_below_one_rejected(self):
        # no probe would leave worst_margin at inf, a pass that checked nothing
        win = Window(1, 8)
        with pytest.raises(ValueError, match="trials"):
            boundedness_check(generate("identity", win), 2.0, WeightSequence.trivial(win),
                              1.0, WeightMatrix.trivial(1), trials=0)

    @pytest.mark.parametrize("q,alpha", [(1.0, -0.25), (2.0, 0.5), (4.0, 1.0)])
    def test_weighted_margins(self, q, alpha):
        win = Window(1, 12)
        a = generate("polynomial_decay_random", win, seed=5, alpha=2.5)
        rep = boundedness_check(a, q, WeightSequence.power(win, alpha), 2.0,
                                WeightMatrix.polynomial(2.0, 1), trials=20, seed=3)
        assert rep.worst_margin >= -1e-10

    def test_shared_constants_keyed_by_every_input(self):
        # one "constants" block over reports whose A_q or C_p differ in one key
        # part each (window, q, weight; p, u, v, d): every report, made on a miss
        # and again on a hit, equals its unshared call
        cases = []
        for d, r in ((1, 6), (2, 3)):
            win = Window(d, r)
            a = generate("polynomial_decay_random", win, seed=7, alpha=2.5)
            poly, const = WeightMatrix.polynomial, WeightMatrix.constant
            pairs = [(2.0, poly(2.0, d), const(4.0, d)), (2.0, poly(2.0, d), const(8.0, d)),
                     (3.0, poly(2.0, d), const(4.0, d)), (2.0, poly(1.0, d), const(4.0, d))]
            for q, alpha in ((2.0, 0.5), (4.0, 0.5), (2.0, 0.25)):
                cases += [(a, q, WeightSequence.power(win, alpha), p, u, v) for p, u, v in pairs]
        alone = [boundedness_check(a, q, w, p, u, trials=2, v=v) for a, q, w, p, u, v in cases]
        assert len({(r.aq_bound_used, r.cp_used) for r in alone}) == len(cases)
        with lattice.sharing("constants"):
            made = [boundedness_check(a, q, w, p, u, trials=2, v=v)
                    for a, q, w, p, u, v in cases + cases]
        assert made == alone + alone


class TestPartitionOperator:
    def test_tent_values(self):
        win = Window(1, 64)
        psi = PartitionOperator(16, 0, win)
        vals = psi.values()
        ix = win.indices[:, 0]
        assert np.all(vals[np.abs(ix) <= 16] == 1.0)
        assert np.all(vals[np.abs(ix) >= 32] == 0.0)
        assert vals[win.flat(24)] == pytest.approx(0.5)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_center_must_be_lattice_multiple(self):
        win = Window(1, 64)
        with pytest.raises(ValueError):
            PartitionOperator(16, 7, win)
        with pytest.raises(ValueError):
            PartitionOperator(16, 80, win)
        with pytest.raises(ValueError):
            PartitionOperator(64, 0, Window(1, 16))

    def test_alpha_trivial_weight(self):
        win = Window(1, 64)
        psi = PartitionOperator(8, 0, win)
        # sum of trivial weight over |i| < 16
        assert psi.alpha(WeightSequence.trivial(win)) == 31.0


class TestCommutator:
    def test_diagonal_matrix_commutes(self):
        win = Window(1, 64)
        rng = np.random.default_rng(0)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        rep = commutator_diagnostic(generate("identity", win), 8, 8, -8, 2.0,
                                    WeightSequence.trivial(win), c)
        assert rep.lhs == 0.0
        assert rep.margin >= 0.0

    def test_shift_probe_value(self):
        # tent slope 1/16 on the ramp; delta probe at the plateau edge
        win = Window(1, 128)
        c = LatticeSequence.delta(win, 16)
        rep = commutator_diagnostic(generate("shift", win), 16, 0, 0, 2.0,
                                    WeightSequence.trivial(win), c)
        assert rep.case == "near"
        assert rep.lhs == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert rep.margin >= 0.0

    def test_far_case_support_separation(self):
        # bandwidth < sep/2 - 4N: the commutator annihilates the probe
        win = Window(1, 128)
        a = generate("banded_random", win, seed=2, bandwidth=2)
        rng = np.random.default_rng(1)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        rep = commutator_diagnostic(a, 8, -96, 32, 2.0, WeightSequence.trivial(win), c)
        assert rep.case == "far"
        assert rep.lhs == 0.0
        assert rep.margin >= 0.0

    @pytest.mark.parametrize("n_scale", [8, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_margins(self, n_scale, seed):
        win = Window(1, 128)
        rng = np.random.default_rng([seed, n_scale])
        a = generate("polynomial_decay_random", win, seed=seed, alpha=3.0)
        kmax = win.radius // n_scale
        n = n_scale * int(rng.integers(-kmax, kmax + 1))
        n_prime = n_scale * int(rng.integers(-kmax, kmax + 1))
        w = WeightSequence.trivial(win) if seed % 2 else WeightSequence.power(win, 0.5)
        c = LatticeSequence(win, rng.standard_normal(win.size)
                            + 1j * rng.standard_normal(win.size))
        rep = commutator_diagnostic(a, n_scale, n, n_prime, 2.0, w, c)
        assert rep.margin >= 0.0

    def test_probe_window_mismatch(self):
        win = Window(1, 32)
        c = LatticeSequence.delta(Window(1, 16))
        with pytest.raises(ValueError):
            commutator_diagnostic(generate("identity", win), 8, 0, 0, 2.0,
                                  WeightSequence.trivial(win), c)

    @pytest.mark.parametrize("centers", [((2, -2), (0, 2)), ((8, 8), (-8, -8))])
    def test_d2_margins(self, centers):
        win = Window(2, 8)
        a = generate("polynomial_decay_random", win, seed=4, alpha=3.0)
        rng = np.random.default_rng(0)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        n, n_prime = centers
        scale = 2 if n == (2, -2) else 1
        rep = commutator_diagnostic(a, scale, n, n_prime, 2.0,
                                    WeightSequence.trivial(win), c)
        assert rep.margin >= 0.0

    @pytest.mark.parametrize("n,n_prime,case", [(0, 16, "near"), (-96, 32, "far")])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_shared_aq_matches_scan(self, n, n_prime, case, alpha):
        # a "constants" block scans A_q once per weight; the report must not change
        win = Window(1, 128)
        a = generate("polynomial_decay_random", win, seed=3, alpha=3.0)
        w = WeightSequence.trivial(win) if alpha == 0.0 else WeightSequence.power(win, alpha)
        rng = np.random.default_rng(2)
        c = LatticeSequence(win, rng.standard_normal(win.size)
                            + 1j * rng.standard_normal(win.size))
        alone = commutator_diagnostic(a, 8, n, n_prime, 2.0, w, c)
        assert alone.case == case
        assert alone.aq_bound_used == aq_bound(w, 2.0, win.side).bound
        with lattice.sharing("constants"):
            made = commutator_diagnostic(a, 8, n, n_prime, 2.0, w, c)
            assert commutator_diagnostic(a, 8, n, n_prime, 2.0, w, c) == made == alone
