import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import lattice
from offdiag.lattice import (LatticeSequence, LocalizedMatrix,
                             Window, WindowMismatchError, add, adjoint,
                             decay_profile, diagonal_suprema, generate,
                             load_matrix, matrix_from_dict, matrix_to_dict, matvec, multiply,
                             radial_matrix, read_rows, restrict,
                             ring_counts, ring_suprema, save_matrix, scale,
                             sequence_from_dict, sequence_to_dict, shared, sharing,
                             weighted_pass)
from offdiag.weights import WeightMatrix


def apply(a, c):
    """A c as a sequence, through ``matvec``."""
    return LatticeSequence(a.window, matvec(a.data, c.data), copy=False)


def brute_profile(a, m_max):
    """Independent oracle: direct enumeration of sup over |i-j|_inf >= m."""
    win = a.window
    out = []
    pairs = [(i, j) for i in win.indices for j in win.indices]
    for m in range(m_max + 1):
        best = 0.0
        for i, j in pairs:
            if np.abs(i - j).max() >= m:
                best = max(best, abs(a.entry(tuple(i), tuple(j))))
        out.append(best)
    return np.array(out)


def sup_dist(win):
    """Independent oracle: |i - j|_inf for every pair of window points."""
    ix = win.indices
    return np.abs(ix[:, None] - ix[None]).max(-1)


def rand_matrix(win, seed, density=0.5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((win.size, win.size)) + 1j * rng.standard_normal((win.size, win.size))
    data *= rng.uniform(0, 1, data.shape) < density
    return LocalizedMatrix(win, data)


class TestWindow:
    def test_lexicographic_enumeration(self):
        win = Window(2, 1)
        expected = list(itertools.product((-1, 0, 1), repeat=2))
        assert [tuple(ix) for ix in win.indices] == expected
        win = Window(3, 2)
        expected = list(itertools.product(range(-2, 3), repeat=3))
        assert [tuple(ix) for ix in win.indices] == expected
        assert win.indices.dtype == np.int64 and not win.indices.flags.writeable

    @given(st.integers(1, 3), st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_flat_roundtrip(self, d, r, data):
        win = Window(d, r)
        pos = win.flat(win.indices)
        assert pos.dtype == np.int64
        assert np.array_equal(pos, np.arange(win.size))
        k = data.draw(st.integers(0, win.size - 1))
        point = tuple(int(x) for x in win.indices[k])
        assert win.flat(point) == k and type(win.flat(point)) is int
        assert win.flat(np.array(point)) == k
        if d == 1:
            assert win.flat(point[0]) == k
        # any leading shape: positions of a (2, size, d) stack
        stack = np.stack([win.indices, win.indices[::-1]])
        assert np.array_equal(win.flat(stack), [np.arange(win.size), np.arange(win.size)[::-1]])
        with pytest.raises(ValueError):
            win.flat(np.zeros((3, d + 1), dtype=np.int64))
        far = np.array(win.indices)
        far[k, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from([-r - 1, r + 1]))
        with pytest.raises(ValueError):
            win.flat(far)
        with pytest.raises(ValueError):
            win.flat(far[k])

    def test_out_of_range_message_prints_ints(self):
        with pytest.raises(ValueError, match=r"index \(7,\) outside window radius 2"):
            Window(1, 2).flat((7,))
        with pytest.raises(ValueError, match=r"index \(0, -3\) outside"):
            Window(2, 2).flat(np.array([[0, 0], [0, -3]]))

    def test_non_integer_point_refused(self):
        # the int64 cast truncated them: 1.5 read as point 1, (1.2,), (1.9,) as entry (1, 1)
        win = Window(1, 3)
        for bad in (1.5, (2.7,), -0.5, math.nan, math.inf, np.array([[1.0], [2.5]])):
            with pytest.raises(ValueError, match="is not an integer"):
                win.flat(bad)
        with pytest.raises(ValueError, match=r"coordinate 0\.25 is not an integer"):
            Window(2, 2).flat((1, 0.25))
        with pytest.raises(ValueError, match="is not an integer"):
            LatticeSequence.delta(win, 2.7)
        with pytest.raises(ValueError, match="is not an integer"):
            LocalizedMatrix(win, np.eye(win.size)).entry((1.2,), (1.9,))
        # integral floats, the form read_rows passes, still name their points
        assert win.flat(2.0) == win.flat(2) == 5
        assert np.array_equal(Window(2, 1).flat(np.array([[1.0, -1.0], [0.0, 0.0]])), [6, 4])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Window(0, 3)
        with pytest.raises(ValueError):
            Window(1, -1)
        with pytest.raises(ValueError):
            Window(1, 2).flat((5,))

    def test_ring_count(self):
        assert ring_counts(1, 3)[0] == 1
        assert ring_counts(1, 3)[3] == 2
        assert ring_counts(2, 1)[1] == 8
        assert ring_counts(3, 2)[2] == 125 - 27
        assert np.array_equal(ring_counts(2, 9, 4), ring_counts(2, 9)[4:])


class TestSharing:
    """``sharing``/``shared``: the one scope for work shared within a call."""

    def test_outside_a_block_makes_every_time(self):
        made = []
        for _ in range(2):
            shared("passes", "key", lambda: made.append(1))
        assert len(made) == 2
        assert lattice._SHARED.get() is None

    def test_same_owner_reuses(self):
        owner = object()
        with sharing("sigma", owner):
            first = shared("sigma", "key", object)
            with sharing("sigma", owner):
                assert shared("sigma", "key", object) is first
                assert shared("sigma", "other", object) is not first
            assert shared("sigma", "key", object) is first

    def test_other_owner_starts_afresh_until_it_exits(self):
        with sharing("sigma", object()):
            outer = shared("sigma", "key", object)
            with sharing("sigma", object()):
                inner = shared("sigma", "key", object)
                assert inner is not outer
                assert shared("sigma", "key", object) is inner
            assert shared("sigma", "key", object) is outer

    def test_other_owner_cannot_read_an_outer_operators_pairs(self):
        # both windows, band and weight agree, so only the owner tells the pairs apart
        from offdiag.muckenhoupt import WeightSequence
        from offdiag.stability import cross_stability_verdicts, stability_bracket

        win = Window(1, 32)
        strong = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0})
        weak = generate("toeplitz_from_coeffs", win, coeffs={0: 1.0, 1: -1.0})
        trivial = WeightSequence.trivial(win)
        with sharing("sigma", strong):
            assert stability_bracket(strong, 2.0, trivial).lower == 1.002563699380637
            got = cross_stability_verdicts(weak, [(2.0, trivial)]).reports[0]
        assert (got.lower, got.verdict) == (0.05066542862637581, "degrading")

    def test_dropped_on_exit_and_on_raise(self):
        with sharing("passes"):
            first = shared("passes", "key", object)
        assert lattice._SHARED.get() is None
        with pytest.raises(ArithmeticError, match="inner failed"):
            with sharing("passes"):
                assert shared("passes", "key", object) is not first
                with sharing("sigma", first):
                    raise ArithmeticError("inner failed")
        assert lattice._SHARED.get() is None

    def test_sigma_block_keeps_no_passes(self):
        a = rand_matrix(Window(1, 3), 1)
        with sharing("sigma", a):
            assert weighted_pass(a) is not weighted_pass(a)
            assert set(lattice._SHARED.get()) == {"sigma"}
        with sharing("passes"):
            first = weighted_pass(a)
            with sharing("sigma", a):  # opening one kind keeps the other's block
                assert weighted_pass(a) is first


class TestDecayProfile:
    def test_identity(self):
        win = Window(1, 2)
        prof = decay_profile(generate("identity", win))
        assert prof.tolist() == [1, 0, 0, 0, 0]

    def test_shift(self):
        win = Window(1, 4)
        prof = decay_profile(generate("shift", win))
        assert prof.tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_geometric(self):
        # a(i,j) = 2^{-|i-j|}: the ring sup sits on the inner boundary
        win = Window(1, 3)
        a = LocalizedMatrix(win, 2.0 ** (-sup_dist(win).astype(float)))
        assert np.array_equal(decay_profile(a), 0.5 ** np.arange(7.0))

    @pytest.mark.parametrize("d,r,seed", [(1, 4, 0), (1, 6, 1), (2, 2, 2), (3, 1, 3)])
    def test_matches_enumeration_oracle(self, d, r, seed):
        # oracle uses Python complex abs, implementation numpy abs: 1-ulp slack
        a = rand_matrix(Window(d, r), seed)
        got = decay_profile(a)
        want = brute_profile(a, 2 * r)
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_nonincreasing(self, seed):
        a = rand_matrix(Window(1, 5), seed)
        vals = decay_profile(a)
        assert np.all(np.diff(vals) <= 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_is_a_read_only_float64_array(self, d):
        # the array ring_suprema makes, contiguous, so sums over it keep their bits
        prof = decay_profile(rand_matrix(Window(d, 3), d))
        assert type(prof) is np.ndarray and prof.dtype == np.float64 and prof.shape == (7,)
        assert prof.flags.c_contiguous and not prof.flags.writeable


def reference_diagonal_suprema(mag, win):
    """Independent oracle: np.maximum.at over the diagonal index k = i - j."""
    ix = win.indices
    k = (ix[:, None, :] - ix[None, :, :] + 2 * win.radius).reshape(-1, win.d)
    shape = (4 * win.radius + 1,) * win.d
    out = np.zeros(shape)
    with np.errstate(invalid="ignore"):  # a NaN entry
        np.maximum.at(out.reshape(-1), np.ravel_multi_index(tuple(k.T), shape), mag.reshape(-1))
    return out


def special_magnitude(win, seed, kind):
    """Nonnegative magnitudes with zeros, +inf or NaN sprinkled in, or all zero."""
    rng = np.random.default_rng(seed)
    mag = rng.random((win.size, win.size))
    if kind == "zero":
        return np.zeros_like(mag)
    mag[rng.random(mag.shape) < 0.3] = 0.0
    if kind in ("inf", "nan"):
        mag[rng.random(mag.shape) < 0.02] = np.inf
    if kind == "nan":
        mag.reshape(-1)[rng.integers(mag.size, size=2)] = np.nan
    return mag


class TestDiagonalSuprema:
    # dense n x n operands: d = 2 stops at R = 7 and d = 3 at R = 2
    WINDOWS = [(1, 0), (1, 1), (1, 7), (1, 40), (2, 0), (2, 1), (2, 7), (3, 0), (3, 1), (3, 2)]

    # 1 byte: one row per chunk; 16 KiB: several rows, a ragged last chunk
    @pytest.mark.parametrize("chunk", [1, 1 << 14, lattice._CHUNK_BYTES],
                             ids=["one-row", "middle", "default"])
    @pytest.mark.parametrize("kind", ["plain", "inf", "nan", "zero"])
    @pytest.mark.parametrize("d,r", WINDOWS)
    def test_matches_index_reference_bit_for_bit(self, monkeypatch, chunk, kind, d, r):
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", chunk)
        win = Window(d, r)
        mag = special_magnitude(win, 10 * d + r, kind)
        got = diagonal_suprema(mag, win)
        want = reference_diagonal_suprema(mag, win)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # a first-axis row is larger than the chunk: the sliced path, one row of a
    # slice (unit bytes) fitting 0, 1, 2 or all times; 1 byte is above
    @pytest.mark.parametrize("fits", [0, 1, 2, "all"])
    @pytest.mark.parametrize("kind", ["plain", "inf", "nan", "zero"])
    @pytest.mark.parametrize("d,r", [(2, 3), (2, 7), (3, 1), (3, 2)])
    def test_slices_match_index_reference_bit_for_bit(self, monkeypatch, fits, kind, d, r):
        win = Window(d, r)
        unit = 2 * win.side * 8 * win.side ** (2 * d - 3)  # the row is side units
        chunk = unit * (win.side if fits == "all" else fits) + (unit // 2 if fits == 0 else 0)
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", chunk)
        mag = special_magnitude(win, 10 * d + r, kind)
        got = diagonal_suprema(mag, win)
        want = reference_diagonal_suprema(mag, win)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_sliced_buffer_stays_within_a_chunk(self, monkeypatch):
        # one first-axis row (2 side^3 entries) is 18 chunks; a whole row per
        # chunk traced about two rows above the per-axis output
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", 8 << 10)
        win = Window(2, 10)
        s = win.side
        mag = special_magnitude(win, 5, "plain")
        tracemalloc.start()
        try:
            diagonal_suprema(mag, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 8 * (2 * s - 1) * s**2 + 2 * 8 * (2 * s - 1) ** 2
        assert peak <= outputs + 3 * lattice._CHUNK_BYTES + (1 << 14)

    # 1 byte takes the sliced path at every d >= 2 window, 16 KiB at d = 2 R = 7 and d = 3 R = 2
    @pytest.mark.parametrize("chunk", [1, 1 << 14, lattice._CHUNK_BYTES],
                             ids=["one-row", "middle", "default"])
    @pytest.mark.parametrize("d,r", [(1, 1), (1, 7), (1, 40), (2, 1), (2, 3), (2, 7),
                                     (3, 1), (3, 2)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_streamed_magnitude_matches_the_whole_one_bit_for_bit(self, monkeypatch, chunk,
                                                                  d, r, real):
        # without a weight the kernel takes |a| chunk by chunk; the trivial
        # WeightMatrix and the oracle take it whole
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", chunk)
        win = Window(d, r)
        data = rand_matrix(win, 10 * d + r).data
        data = data.real.copy() if real else data.copy()
        data[-1, -2], data[0, 2] = np.nan, np.inf  # at |k|_inf = 1 and 2
        a = LocalizedMatrix(win, data)
        assert a.data.dtype == (np.float64 if real else np.complex128)
        want = reference_diagonal_suprema(np.abs(a.data), win)
        assert weighted_pass(a).tobytes() == want.tobytes()
        assert weighted_pass(a, WeightMatrix.trivial(d)).tobytes() == want.tobytes()
        got = decay_profile(a)
        assert got.tobytes() == decay_profile(a, WeightMatrix.trivial(d)).tobytes()
        assert got.tobytes() == ring_suprema(want).tobytes()
        assert np.isnan(got[:2]).all() and np.isinf(got[2])

    @pytest.mark.parametrize("d,r", [(1, 256), (1, 512), (2, 12)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_decay_profile_holds_no_magnitude(self, d, r, real):
        # one chunk buffer, the chunk's |.| (half a buffer) and the per-axis
        # outputs; |a| and its buffer before, 3.03 MiB at d = 1 R = 256
        win = Window(d, r)
        zero, one = (0,) * d, (1,) + (0,) * (d - 1)
        coeffs = {zero: 2.0, one: 1.0, (-3,) + zero[1:]: 0.5 if real else 0.5j}
        a = generate("toeplitz_from_coeffs", win, coeffs=coeffs)
        assert a.data.dtype == (np.float64 if real else np.complex128)
        tracemalloc.start()
        try:
            decay_profile(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 8 * (2 * win.side - 1) * win.side ** (2 * d - 2)  # the first axis's
        assert peak <= 3 * lattice._CHUNK_BYTES // 2 + 2 * outputs + (1 << 16)


class TestAlgebra:
    def test_adjoint_involution(self):
        a = rand_matrix(Window(1, 4), 3)
        assert np.array_equal(adjoint(adjoint(a)).data, a.data)

    def test_identity_neutral(self):
        win = Window(1, 4)
        a = rand_matrix(win, 4)
        assert np.array_equal(multiply(generate("identity", win), a).data, a.data)

    def test_shift_square_is_two_step(self):
        win = Window(1, 4)
        s2 = multiply(generate("shift", win), generate("shift", win))
        ix = win.indices[:, 0]
        want = (ix[:, None] - ix[None, :] == 2).astype(complex)
        assert np.array_equal(s2.data, want)

    def test_window_mismatch(self):
        a = rand_matrix(Window(1, 3), 0)
        b = rand_matrix(Window(1, 4), 0)
        with pytest.raises(WindowMismatchError):
            multiply(a, b)
        with pytest.raises(WindowMismatchError):
            add(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_associativity_and_distributivity(self, seed):
        win = Window(1, 3)
        a, b, c = (rand_matrix(win, 10 * seed + k) for k in range(3))
        lhs = multiply(multiply(a, b), c).data
        rhs = multiply(a, multiply(b, c)).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        lhs2 = multiply(a, add(b, c)).data
        rhs2 = add(multiply(a, b), multiply(a, c)).data
        assert np.allclose(lhs2, rhs2, rtol=1e-12, atol=1e-12)

    def test_adjoint_antihomomorphism(self):
        win = Window(2, 1)
        a, b = rand_matrix(win, 7), rand_matrix(win, 8)
        lhs = adjoint(multiply(a, b)).data
        rhs = multiply(adjoint(b), adjoint(a)).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_apply_composition(self):
        win = Window(1, 4)
        a, b = rand_matrix(win, 9), rand_matrix(win, 10)
        rng = np.random.default_rng(11)
        c = LatticeSequence(win, rng.standard_normal(win.size) + 0j)
        lhs = apply(multiply(a, b), c).data
        rhs = apply(a, apply(b, c)).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_apply_examples(self):
        win = Window(1, 4)
        ident = generate("identity", win)
        c = LatticeSequence(win, np.arange(win.size) + 0j)
        assert np.array_equal(apply(ident, c).data, c.data)
        s = generate("shift", win)
        shifted = apply(s, LatticeSequence.delta(win, 0))
        assert shifted.value(1) == 1.0 and shifted.data.sum() == 1.0
        # column extraction
        a = rand_matrix(win, 12)
        col = apply(a, LatticeSequence.delta(win, 2))
        assert np.array_equal(col.data, a.data[:, win.flat((2,))])

    def test_scale(self):
        a = rand_matrix(Window(1, 3), 13)
        assert np.allclose(scale(2j, a).data, 2j * a.data, rtol=0, atol=0)

    def test_immutability(self):
        a = rand_matrix(Window(1, 2), 14)
        with pytest.raises((ValueError, AttributeError)):
            a.data[0, 0] = 5.0
        with pytest.raises(AttributeError):
            a.data = None
        # real input stays real and read-only; a sequence stays complex
        win = Window(1, 2)
        real = LocalizedMatrix(win, np.eye(win.size), copy=False)
        seq = LatticeSequence(win, np.arange(float(win.size)), copy=False)
        assert real.data.dtype == np.float64 and not real.data.flags.writeable
        assert seq.data.dtype == np.complex128 and not seq.data.flags.writeable
        assert np.array_equal(real.data, np.eye(win.size))


class TestDtype:
    """A matrix is stored float64 exactly when every imaginary part of its
    input is zero, and complex128 otherwise."""

    WIN = Window(1, 2)

    @pytest.mark.parametrize("copy", [True, False])
    def test_real_input_stays_real(self, copy):
        for data in (np.eye(5), np.eye(5, dtype=np.float32), np.eye(5, dtype=int),
                     np.eye(5, dtype=bool), np.eye(5).tolist()):
            a = LocalizedMatrix(self.WIN, data, copy=copy)
            assert a.data.dtype == np.float64 and not a.data.flags.writeable
            assert np.array_equal(a.data, np.eye(5))

    @pytest.mark.parametrize("copy", [True, False])
    def test_nonzero_imaginary_part_stays_complex(self, copy):
        data = np.eye(5, dtype=np.complex128)
        data[4, 0] = 1e-300j  # one imaginary part is enough
        a = LocalizedMatrix(self.WIN, data, copy=copy)
        assert a.data.dtype == np.complex128 and not a.data.flags.writeable
        assert a.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("copy", [True, False])
    def test_zero_imaginary_parts_become_real(self, copy):
        rng = np.random.default_rng(3)
        re = rng.standard_normal((5, 5))
        re[0, 0], re[1, 2] = -0.0, np.inf
        data = np.zeros((5, 5), dtype=np.complex128)
        data.real = re
        data.imag[2, 2] = -0.0  # a signed zero is zero
        a = LocalizedMatrix(self.WIN, data, copy=copy)
        assert a.data.dtype == np.float64 and a.data.flags.c_contiguous
        assert a.data.tobytes() == re.tobytes()
        assert not np.shares_memory(a.data, data) and data.flags.writeable
        assert scale(1.0, a).data.dtype == np.float64

    def test_nan_imaginary_part_stays_complex(self):
        data = np.eye(5, dtype=np.complex128)
        data[1, 3] = complex(0.0, np.nan)
        a = LocalizedMatrix(self.WIN, data)
        assert a.data.dtype == np.complex128
        assert np.isnan(a.data[1, 3].imag)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("imag", [1e-300, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 4), (1, 0), (4, 4)])
    def test_one_imaginary_part_at_either_end_decides(self, where, imag, order):
        # the leading row is read first and the rest only when it is all zero
        data = np.eye(5, dtype=np.complex128)
        data[where] = complex(data[where].real, imag)
        a = LocalizedMatrix(self.WIN, np.asarray(data, order=order))
        assert a.data.dtype == np.complex128
        assert a.data.tobytes() == data.tobytes()  # a NaN keeps its bits

    def test_no_copy_of_a_c_ordered_real_array(self):
        data = np.eye(5)
        assert LocalizedMatrix(self.WIN, data, copy=False).data is data
        assert not data.flags.writeable
        fresh = np.eye(5)
        assert not np.shares_memory(LocalizedMatrix(self.WIN, fresh).data, fresh)

    def test_algebra_keeps_the_rule(self):
        win = Window(2, 1)
        real = generate("toeplitz_from_coeffs", win, coeffs={(0, 0): 2.0, (1, 0): -1.0})
        cplx = rand_matrix(win, 5)
        assert multiply(real, real).data.dtype == np.float64
        assert adjoint(real).data.dtype == np.float64
        assert restrict(real, Window(2, 0)).data.dtype == np.float64
        assert scale(2.0, real).data.dtype == np.float64
        assert scale(1j, real).data.dtype == np.complex128
        assert add(real, scale(1j, real)).data.dtype == np.complex128
        # a mixed product keeps the bits of the all-complex product
        mixed = multiply(real, cplx).data
        assert mixed.dtype == np.complex128
        assert mixed.tobytes() == (real.data.astype(np.complex128) @ cplx.data).tobytes()

    @pytest.mark.parametrize("d, r", [(1, 4), (2, 2)])
    def test_generate_dtypes(self, d, r):
        win = Window(d, r)
        one = (1,) + (0,) * (d - 1)
        for kind, params in (("identity", {}), ("shift", {}),
                             ("toeplitz_from_coeffs", {"coeffs": {0: 2.0, one: -1}}),
                             # a complex coefficient past 2R misses the window
                             ("toeplitz_from_coeffs", {"coeffs": {0: 1.0, 4 * r + 1: 1j}})):
            a = generate(kind, win, **params)
            assert a.data.dtype == np.float64, kind
        toeplitz = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, one: 1 - 1j})
        assert toeplitz.data.dtype == np.complex128
        assert toeplitz.entry((0,) * d, (0,) * d) == 2.0
        nan_im = generate("toeplitz_from_coeffs", win, coeffs={0: complex(1.0, np.nan)})
        assert nan_im.data.dtype == np.complex128
        for kind, params in (("banded_random", {"bandwidth": 1}),
                             ("polynomial_decay_random", {"alpha": 2.0})):
            assert generate(kind, win, seed=4, **params).data.dtype == np.complex128

    def test_real_toeplitz_has_the_bits_of_the_complex_build(self):
        win = Window(2, 3)
        coeffs = {(0, 0): 2.5, (1, -1): -0.75, (0, 2): 1e-310, (-3, 1): -0.0}
        real = generate("toeplitz_from_coeffs", win, coeffs=coeffs)
        rotated = generate("toeplitz_from_coeffs", win,
                           coeffs={k: complex(0.0, v) for k, v in coeffs.items()})
        assert real.data.tobytes() == rotated.data.imag.copy().tobytes()

    def test_real_file_loads_real_and_saves_the_same_bytes(self, tmp_path):
        win = Window(2, 2)
        a = generate("toeplitz_from_coeffs", win, coeffs={(0, 0): 2.0, (1, 1): -0.5})
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(a, first)
        b = load_matrix(first)
        assert b.data.dtype == np.float64 and b.data.tobytes() == a.data.tobytes()
        save_matrix(b, second)
        assert second.read_bytes() == first.read_bytes()
        # one nonzero imaginary cell makes the whole file complex
        doc = json.loads(first.read_text())
        doc["entries"][0][-1] = 0.25
        assert matrix_from_dict(doc).data.dtype == np.complex128

    def test_load_matrix_builds_the_real_array_directly(self, tmp_path):
        # building a complex array and demoting it traced 2.64 real n x n arrays
        win = Window(1, 256)
        path = tmp_path / "a.json"
        save_matrix(generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0}), path)
        tracemalloc.start()
        try:
            a = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.data.dtype == np.float64
        assert peak < 2 * 8 * win.size**2  # the array and the parsed file


class TestMatvec:
    """``matvec``: a complex matrix multiplies as numpy does, a real one in one
    real GEMM on the vector's (re, im) pairs, with no complex copy of itself."""

    @staticmethod
    def operands(d):
        win = Window(d, 8 if d == 1 else 3)
        rng = np.random.default_rng(d)
        e = [(0,) * d] + [(k,) + (0,) * (d - 1) for k in (1, -1, 2)]
        toeplitz = generate("toeplitz_from_coeffs", win,
                            coeffs=dict(zip(e, (3.0, 1.0, 0.5, 0.25))))
        dense = LocalizedMatrix(win, rng.standard_normal((win.size, win.size)))
        x = rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size)
        return win, (toeplitz, dense), rand_matrix(win, 20 + d), x

    @pytest.mark.parametrize("d", [1, 2])
    def test_complex_operand_has_numpys_bits(self, d):
        win, _, cplx, x = self.operands(d)
        assert matvec(cplx.data, x).tobytes() == (cplx.data @ x).tobytes()
        assert apply(cplx, LatticeSequence(win, x)).data.tobytes() == (cplx.data @ x).tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_operand_matches_the_complex_cast_to_roundoff(self, d):
        win, reals, _, x = self.operands(d)
        for a in reals:
            assert a.data.dtype == np.float64
            got = matvec(a.data, x)
            assert got.dtype == np.complex128 and got.shape == (win.size,)
            err = np.abs(got - a.data.astype(np.complex128) @ x).max()
            assert err <= 1e-13 * np.abs(a.data).sum() * np.linalg.norm(x)
            assert apply(a, LatticeSequence(win, x)).data.tobytes() == got.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_strided_sequence_matches_its_contiguous_copy(self, d):
        win, reals, cplx, x = self.operands(d)
        buf = np.zeros(2 * win.size, dtype=np.complex128)
        buf[::2] = x
        strided = LatticeSequence(win, buf[::2], copy=False)
        assert not strided.data.flags.c_contiguous
        for a in (*reals, cplx):
            assert apply(a, strided).data.tobytes() == \
                apply(a, LatticeSequence(win, x)).data.tobytes()

    def test_real_operand_is_not_cast(self):
        # numpy's mixed product casts the matrix: 2 real n x n arrays a call
        win = Window(1, 256)
        a = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0})
        x = np.ones(win.size, dtype=np.complex128)
        tracemalloc.start()
        try:
            matvec(a.data, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * win.size


class TestGenerate:
    def test_identity_2d(self):
        win = Window(2, 3)
        a = generate("identity", win)
        assert a.nnz == win.size
        assert np.array_equal(a.data, np.eye(win.size))

    def test_toeplitz_from_coeffs(self):
        win = Window(1, 3)
        a = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0})
        ix = win.indices[:, 0]
        want = 2.0 * np.eye(win.size) + (ix[:, None] - ix[None, :] == 1)
        assert np.array_equal(a.data, want.astype(complex))
        # d = 2: an int key means offset (k, 0); offsets beyond 2R never fit
        win = Window(2, 2)
        coeffs = {(0, 0): 3.0, 1: 1.0 - 2j, (-1, 2): 0.5, (4, -4): 0.25, (5, 0): 9.0}
        a = generate("toeplitz_from_coeffs", win, coeffs=coeffs)
        table = {(0, 0): 3.0, (1, 0): 1.0 - 2j, (-1, 2): 0.5, (4, -4): 0.25}
        want = np.array([[table.get(tuple(i - j), 0.0) for j in win.indices]
                         for i in win.indices], dtype=complex)
        assert np.array_equal(a.data, want)

    def test_banded_random_deterministic(self):
        win = Window(1, 5)
        a = generate("banded_random", win, seed=7, bandwidth=2)
        b = generate("banded_random", win, seed=7, bandwidth=2)
        assert np.array_equal(a.data, b.data)
        c = generate("banded_random", win, seed=8, bandwidth=2)
        assert not np.array_equal(a.data, c.data)
        assert np.all(np.abs(a.data[sup_dist(win) > 2]) == 0)

    def test_polynomial_decay_bound(self):
        win = Window(1, 6)
        alpha, amp = 2.5, 3.0
        a = generate("polynomial_decay_random", win, seed=1, alpha=alpha, amplitude=amp)
        bound = amp * (1.0 + sup_dist(win)) ** (-alpha)
        assert np.all(np.abs(a.data) <= bound + 1e-15)

    @pytest.mark.parametrize("d,r", [(1, 0), (1, 5), (2, 2), (3, 1)])
    def test_radial_matrix(self, d, r):
        win = Window(d, r)
        values = (1.0 + np.arange(win.side)) ** -1.5
        placed = radial_matrix(values, win)
        assert placed.dtype == np.float64
        assert np.array_equal(placed, values[sup_dist(win)])
        assert np.array_equal(radial_matrix(np.arange(win.side) <= 1, win), sup_dist(win) <= 1)
        with pytest.raises(ValueError):
            radial_matrix(values[:-1], win)

    @pytest.mark.parametrize("kind, params", [
        ("banded_random", {"bandwidth": 1, "amplitude": math.inf}),
        ("banded_random", {"bandwidth": 1, "amplitude": math.nan}),
        ("polynomial_decay_random", {"alpha": math.nan}),
        ("polynomial_decay_random", {"alpha": math.inf}),
        ("polynomial_decay_random", {"alpha": 1.0, "amplitude": math.inf}),
    ])
    def test_non_finite_parameter_refused(self, kind, params):
        # built a matrix of inf or nan entries before
        with pytest.raises(ValueError, match="finite"):
            generate(kind, Window(1, 2), seed=0, **params)

    @pytest.mark.parametrize("d, params", [
        (1, {"kind": "shift", "offset": (1.5,)}),
        (2, {"kind": "shift", "offset": (1, 0.5)}),
        (1, {"kind": "toeplitz_from_coeffs", "coeffs": {(0.5,): 1.0}}),
        (2, {"kind": "toeplitz_from_coeffs", "coeffs": {(0, 0): 2.0, (1, -0.9): 1.0}}),
    ])
    def test_non_integral_offset_refused(self, d, params):
        # the int64 cast truncated them: offset (1.5,) placed the shift at 1
        with pytest.raises(ValueError, match="is not an integer"):
            generate(window=Window(d, 2), **params)

    def test_integral_float_offset_is_the_integer(self):
        win = Window(2, 2)
        assert np.array_equal(generate("shift", win, offset=(1.0, -1.0)).data,
                              generate("shift", win, offset=(1, -1)).data)

    @pytest.mark.parametrize("d, coeffs, index", [
        (1, {0: 2.0, (0,): 1.0}, r"\(0,\)"),
        (2, {1: 2.0, (1, 0): 5.0}, r"\(1, 0\)"),
        (1, {9: 1.0, (9.0,): 1.0}, r"\(9,\)"),  # a diagonal beyond 2R too
    ], ids=["d1", "d2", "beyond-2R"])
    def test_two_keys_naming_one_offset_refused(self, d, coeffs, index):
        # the later key won: {0: 2, (0,): 1} put 1 on the diagonal, {1: 2, (1, 0): 5} kept 5
        with pytest.raises(ValueError, match=f"two coefficient rows at index {index}"):
            generate("toeplitz_from_coeffs", Window(d, 2), coeffs=coeffs)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("nope", Window(1, 2))
        with pytest.raises(ValueError):
            generate("banded_random", Window(1, 2), seed=0, bandwidth=1, junk=1)


class TestSerialization:
    def test_matrix_roundtrip(self, tmp_path):
        a = rand_matrix(Window(2, 1), 30)
        path = tmp_path / "m.json"
        save_matrix(a, path)
        b = load_matrix(path)
        assert b.window == a.window
        assert np.array_equal(b.data, a.data)

    def test_zeros_never_stored(self):
        win = Window(1, 2)
        a = generate("identity", win)
        doc = matrix_to_dict(a)
        assert len(doc["entries"]) == win.size
        assert matrix_from_dict(doc).nnz == win.size

    def test_entry_layout(self):
        win = Window(2, 1)
        data = np.zeros((win.size, win.size), dtype=np.complex128)
        data[win.flat((1, -1)), win.flat((0, 0))] = 2 + 3j
        a = LocalizedMatrix(win, data)
        doc = matrix_to_dict(a)
        assert doc["entries"] == [[1, -1, 0, 0, 2.0, 3.0]]

    @pytest.mark.parametrize("d, r", [(1, 4), (2, 2), (3, 1)])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_rows_match_the_entry_loop(self, d, r, complex_):
        # oracle: the per-entry loop the writers used before the vectorized rows
        win = Window(d, r)
        data = rand_matrix(win, 7 * d + r).data + 0.0  # absent cells read back as +0.0
        a = LocalizedMatrix(win, data if complex_ else data.real)
        ix = win.indices
        rows, cols = np.nonzero(a.data)
        want = [[*map(int, ix[i]), *map(int, ix[j]), float(a.data[i, j].real),
                 float(a.data[i, j].imag)] for i, j in zip(rows, cols)]
        doc = matrix_to_dict(a)
        assert json.dumps(doc["entries"]) == json.dumps(want)
        assert matrix_from_dict(json.loads(json.dumps(doc))).data.tobytes() == a.data.tobytes()
        c = LatticeSequence(win, a.data[:, 0])
        want = [[*map(int, ix[k]), float(c.data[k].real), float(c.data[k].imag)]
                for k in np.flatnonzero(c.data)]
        doc = sequence_to_dict(c)
        assert json.dumps(doc["entries"]) == json.dumps(want)
        assert sequence_from_dict(json.loads(json.dumps(doc))).data.tobytes() == c.data.tobytes()

    def test_empty_rows(self):
        win = Window(2, 1)
        assert matrix_to_dict(LocalizedMatrix(win, np.zeros((9, 9))))["entries"] == []
        assert sequence_to_dict(LatticeSequence(win, np.zeros(9)))["entries"] == []

    def test_sequence_roundtrip(self):
        win = Window(1, 3)
        data = np.zeros(win.size, dtype=np.complex128)
        data[win.flat(-2)], data[win.flat(3)] = 1j, 2.0
        c = LatticeSequence(win, data)
        back = sequence_from_dict(sequence_to_dict(c))
        assert np.array_equal(back.data, c.data)

    def test_bad_entry_length(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"d": 2, "radius": 1, "entries": [[0, 0, 1.0, 0.0]]})

    def test_duplicate_positions_refused(self):
        # two rows at one position used to let the last row win silently
        with pytest.raises(ValueError, match="same position"):
            matrix_from_dict({"d": 1, "radius": 1,
                              "entries": [[0, 1, 1.0, 0.0], [0, 1, 2.0, 0.0]]})
        with pytest.raises(ValueError, match="same position"):
            sequence_from_dict({"d": 2, "radius": 1,
                                "entries": [[1, 0, 1.0, 0.0], [1, 0, 1.0, 0.0]]})
        with pytest.raises(ValueError, match="same position"):
            read_rows(Window(1, 2), [[0, 2.0], [1, 3.0], [0, 2.0]], 1, 1)
        # the same point as row and as column is not a duplicate
        a = matrix_from_dict({"d": 1, "radius": 1,
                              "entries": [[0, 1, 1.0, 0.0], [1, 0, 2.0, 0.0]]})
        assert a.nnz == 2

    def test_values_read_exactly(self):
        # complex(re, im) keeps a -0.0 real part and a subnormal imaginary part
        rows = [[-1, 0, -0.0, 5e-324], [0, 1, 2.5, -0.0], [1, 1, 3, 4]]
        a = matrix_from_dict({"d": 1, "radius": 1, "entries": rows})
        want = np.zeros((3, 3), dtype=np.complex128)
        for i, j, re, im in rows:
            want[i + 1, j + 1] = complex(re, im)
        assert a.data.tobytes() == want.tobytes()
        # a cell that is not a number, a value that is not finite, or a point
        # that is not an integer point
        for row in ([0, 0, None, 0.0], [0, 0, float("nan"), 0.0], [0, 0, 1.0, float("inf")],
                    [0, 0, -float("inf"), 0.0], [0.5, 0, 1.0, 0.0], [float("nan"), 0, 1.0, 0.0]):
            with pytest.raises(ValueError):
                matrix_from_dict({"d": 1, "radius": 1, "entries": [row]})

    @pytest.mark.parametrize("point, shown", [(1e20, "(1e+20,)"),
                                              (10**20, "(100000000000000000000,)"),
                                              (-3, "(-3,)")])
    def test_point_outside_window_named_as_read(self, point, shown):
        # refused on the float cells, before an int64 cast could wrap it
        with pytest.raises(ValueError, match=rf"index {re.escape(shown)} outside window radius 2"):
            matrix_from_dict({"d": 1, "radius": 2, "entries": [[0, 0, 1.0, 0.0],
                                                               [1, point, 1.0, 0.0]]})

    def test_boolean_and_overflowing_cells_refused(self):
        # true would read as 1 and an int past the float64 range as nothing finite
        for row in ([0, 0, True, 0.0], [0, False, 1.0, 0.0], [0, 0, 1.0, 10**400]):
            with pytest.raises(ValueError):
                matrix_from_dict({"d": 1, "radius": 1, "entries": [row]})
        with pytest.raises(ValueError, match="numbers only"):
            read_rows(Window(1, 2), [[0, 2.0], [True, 3.0]], 1, 1)
