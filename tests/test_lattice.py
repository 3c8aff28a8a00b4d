import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import lattice
from offdiag.lattice import (DecayProfile, LatticeSequence, LocalizedMatrix,
                             Window, WindowMismatchError, add, adjoint, apply,
                             decay_profile, diagonal_suprema, embed, generate,
                             load_matrix, matrix_from_dict, matrix_to_dict, multiply,
                             profile_to_csv, radial_matrix, read_rows, restrict,
                             ring_counts, save_matrix, scale, sequence_from_dict,
                             sequence_to_dict)


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


class TestDecayProfile:
    def test_identity(self):
        win = Window(1, 2)
        prof = decay_profile(generate("identity", win))
        assert prof.values.tolist() == [1, 0, 0, 0, 0]

    def test_shift(self):
        win = Window(1, 4)
        prof = decay_profile(generate("shift", win))
        assert prof.values.tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_geometric(self):
        # a(i,j) = 2^{-|i-j|}: the ring sup sits on the inner boundary
        win = Window(1, 3)
        a = LocalizedMatrix(win, 2.0 ** (-sup_dist(win).astype(float)))
        assert np.array_equal(decay_profile(a).values, 0.5 ** np.arange(7.0))

    @pytest.mark.parametrize("d,r,seed", [(1, 4, 0), (1, 6, 1), (2, 2, 2), (3, 1, 3)])
    def test_matches_enumeration_oracle(self, d, r, seed):
        # oracle uses Python complex abs, implementation numpy abs: 1-ulp slack
        a = rand_matrix(Window(d, r), seed)
        got = decay_profile(a).values
        want = brute_profile(a, 2 * r)
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_nonincreasing(self, seed):
        a = rand_matrix(Window(1, 5), seed)
        vals = decay_profile(a).values
        assert np.all(np.diff(vals) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayProfile(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError):
            DecayProfile(np.array([-1.0]), 1)


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

    def test_decay_profile_holds_one_magnitude(self):
        # |a| plus the chunk buffer and the outputs; three n x n arrays before
        win = Window(1, 256)
        a = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0, -3: 0.5j})
        tracemalloc.start()
        try:
            decay_profile(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * win.size**2 + lattice._CHUNK_BYTES + (1 << 16)


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
        # real input is converted, not refused, when no copy is requested
        win = Window(1, 2)
        real = LocalizedMatrix(win, np.eye(win.size), copy=False)
        seq = LatticeSequence(win, np.arange(float(win.size)), copy=False)
        for arr in (real.data, seq.data):
            assert arr.dtype == np.complex128 and not arr.flags.writeable
        assert np.array_equal(real.data, np.eye(win.size))


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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("nope", Window(1, 2))
        with pytest.raises(ValueError):
            generate("banded_random", Window(1, 2), seed=0, bandwidth=1, junk=1)


class TestEmbedRestrict:
    def test_roundtrip(self):
        small, big = Window(1, 3), Window(1, 6)
        a = rand_matrix(small, 20)
        back = restrict(embed(a, big), small)
        assert np.array_equal(back.data, a.data)

    def test_embed_preserves_profile_head(self):
        small, big = Window(1, 3), Window(1, 8)
        a = rand_matrix(small, 21)
        p_small = decay_profile(a).values
        p_big = decay_profile(embed(a, big)).values
        assert np.array_equal(p_big[: p_small.size], p_small)

    def test_dimension_guard(self):
        with pytest.raises(WindowMismatchError):
            embed(rand_matrix(Window(1, 2), 0), Window(2, 4))


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
        a = LocalizedMatrix.from_entries(win, {((1, -1), (0, 0)): 2 + 3j})
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
        c = LatticeSequence.from_values(win, {(-2,): 1j, (3,): 2.0})
        back = sequence_from_dict(sequence_to_dict(c))
        assert np.array_equal(back.data, c.data)

    def test_profile_csv(self, tmp_path):
        prof = DecayProfile(np.array([1.0, 0.5, 0.0]), 1)
        text = profile_to_csv(prof, tmp_path / "p.csv")
        assert text.splitlines()[0] == "n,h"
        assert text.splitlines()[1] == "0,1.0"
        assert (tmp_path / "p.csv").read_text() == text

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
