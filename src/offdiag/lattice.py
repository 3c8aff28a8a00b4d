"""Finite index windows of Z^d and the objects living on them.

A window is the cube [-R, R]^d enumerated in a fixed lexicographic order.
Matrices and sequences supported on a window are exact members of every
off-diagonal-decay class handled downstream, so algebra identities and norm
inequalities can be checked without truncation error.  Windows only act as
approximations when a generator family is re-sampled at growing radii to
emulate an infinite operator.

Window geometry has one kernel, built without n x n index tables:
``diagonal_suprema`` (suprema along each diagonal i - j = k), ``ring_suprema``
(their envelope over |k|_inf >= m) and the inverse placement of a (4R+1)^d
diagonal array, which assembles Toeplitz matrices and ``Window.dist``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Window",
    "LocalizedMatrix",
    "LatticeSequence",
    "DecayProfile",
    "WindowMismatchError",
    "ring_count",
    "ring_counts",
    "diagonal_suprema",
    "ring_suprema",
    "decay_profile",
    "adjoint",
    "add",
    "scale",
    "multiply",
    "apply",
    "embed",
    "restrict",
    "generate",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "sequence_to_dict",
    "sequence_from_dict",
    "save_sequence",
    "load_sequence",
    "profile_to_csv",
]


class WindowMismatchError(ValueError):
    """Binary operation attempted on operands with different windows."""


@dataclass(frozen=True)
class Window:
    """The index cube [-radius, radius]^d with lexicographic enumeration."""

    d: int
    radius: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        return self.side**self.d

    @cached_property
    def indices(self) -> np.ndarray:
        """All lattice points, shape (size, d), lexicographic order."""
        r = self.radius
        pts = np.array(
            list(itertools.product(range(-r, r + 1), repeat=self.d)), dtype=np.int64
        )
        pts.setflags(write=False)
        return pts.reshape(self.size, self.d)

    @cached_property
    def dist(self) -> np.ndarray:
        """Pairwise sup-distances |i - j|_inf, shape (size, size)."""
        k = np.abs(np.arange(-2 * self.radius, 2 * self.radius + 1))
        m = _place_diagonals(reduce(np.maximum.outer, [k] * self.d), self)
        m.setflags(write=False)
        return m

    def flat(self, index) -> int:
        """Lexicographic position of a lattice point."""
        idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
        if idx.shape != (self.d,):
            raise ValueError(f"index {index!r} does not match dimension {self.d}")
        if np.any(np.abs(idx) > self.radius):
            raise ValueError(f"index {tuple(idx)} outside window radius {self.radius}")
        pos = 0
        for k in range(self.d):
            pos = pos * self.side + int(idx[k]) + self.radius
        return pos

    def contains(self, index) -> bool:
        idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
        return idx.shape == (self.d,) and bool(np.all(np.abs(idx) <= self.radius))


def ring_count(m: int, d: int) -> int:
    """Number of k in Z^d with |k|_inf = m."""
    if m == 0:
        return 1
    return (2 * m + 1) ** d - (2 * m - 1) ** d


def ring_counts(d: int, m_max: int) -> np.ndarray:
    """ring_count(m, d) for m = 0 .. m_max as a float array."""
    m = np.arange(m_max + 1, dtype=np.float64)
    out = (2 * m + 1) ** d - np.maximum(2 * m - 1, 0.0) ** d
    out[0] = 1.0
    return out


def _check_same_window(a, b):
    if a.window != b.window:
        raise WindowMismatchError(f"windows differ: {a.window} vs {b.window}")


class LocalizedMatrix:
    """Finitely supported complex matrix over a window.

    Stored dense over the window; an absent entry and a stored zero are the
    same object semantically, and serialization never emits zeros.  Instances
    are immutable after construction.
    """

    __slots__ = ("window", "data")

    def __init__(self, window: Window, data, *, copy: bool = True):
        arr = (np.array if copy else np.asarray)(data, dtype=np.complex128)
        if arr.shape != (window.size, window.size):
            raise ValueError(
                f"data shape {arr.shape} does not match window size {window.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LocalizedMatrix is immutable")

    @classmethod
    def from_entries(cls, window: Window, entries: dict) -> "LocalizedMatrix":
        data = np.zeros((window.size, window.size), dtype=np.complex128)
        for (i, j), v in entries.items():
            data[window.flat(i), window.flat(j)] = v
        return cls(window, data, copy=False)

    def entry(self, i, j) -> complex:
        return complex(self.data[self.window.flat(i), self.window.flat(j)])

    def entries(self):
        """Yield ((i, j), value) over nonzero entries, lexicographic order."""
        ix = self.window.indices
        rows, cols = np.nonzero(self.data)
        for r, c in zip(rows, cols):
            yield (tuple(ix[r]), tuple(ix[c])), complex(self.data[r, c])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))


class LatticeSequence:
    """Finitely supported complex sequence over a window."""

    __slots__ = ("window", "data")

    def __init__(self, window: Window, data, *, copy: bool = True):
        arr = (np.array if copy else np.asarray)(data, dtype=np.complex128)
        if arr.shape != (window.size,):
            raise ValueError(
                f"data shape {arr.shape} does not match window size {window.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSequence is immutable")

    @classmethod
    def from_values(cls, window: Window, values: dict) -> "LatticeSequence":
        data = np.zeros(window.size, dtype=np.complex128)
        for i, v in values.items():
            data[window.flat(i)] = v
        return cls(window, data, copy=False)

    @classmethod
    def delta(cls, window: Window, at=0) -> "LatticeSequence":
        """Unit impulse at the given lattice point (default origin)."""
        if isinstance(at, int) and window.d > 1:
            at = (at,) * window.d
        data = np.zeros(window.size, dtype=np.complex128)
        data[window.flat(at)] = 1.0
        return cls(window, data, copy=False)

    def value(self, i) -> complex:
        return complex(self.data[self.window.flat(i)])


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """Radial envelope h(0) >= h(1) >= ... of off-diagonal suprema."""

    values: np.ndarray
    d: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("profile must be a nonempty 1-d array")
        if np.any(arr < 0):
            raise ValueError("profile values must be nonnegative")
        if np.any(np.diff(arr) > 0):
            raise ValueError("profile must be nonincreasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def m_max(self) -> int:
        return self.values.size - 1


def diagonal_suprema(mag, window: Window) -> np.ndarray:
    """sup_{i-j=k} mag(i, j) for every k in [-2R, 2R]^d, shape (4R+1,)^d.

    One axis at a time: the rows of the (i_a, j_a) block, reversed in j_a,
    are laid into a zero-padded buffer of row length 2 side and read back
    with row length 2 side - 1.  That shifts row i_a by i_a, putting j_a in
    column i_a - j_a + 2R, so a max over i_a leaves the diagonal index k_a.
    Entries are assumed nonnegative; max is exact under any grouping.
    """
    s, d = window.side, window.d
    x = np.asarray(mag).reshape((s,) * (2 * d))
    x = x.transpose(np.arange(2 * d).reshape(2, d).T.ravel())  # i_1, j_1, i_2, j_2, ...
    for _ in range(d):
        rest = x.shape[2:]
        buf = np.zeros((s, 2 * s) + rest, dtype=x.dtype)
        buf[:, :s] = x[:, ::-1]
        skew = buf.reshape((2 * s * s,) + rest)[: s * (2 * s - 1)]
        x = np.moveaxis(skew.reshape((s, 2 * s - 1) + rest).max(axis=0), 0, -1)
    return np.ascontiguousarray(x)


def ring_suprema(diag: np.ndarray) -> np.ndarray:
    """h(m) = sup{diag(k) : |k|_inf >= m}, m = 0..2R, from diagonal suprema.

    |k|_inf >= m exactly when some |k_a| >= m, so h is the reverse running
    max of the per-axis marginal suprema folded onto |k_a|.
    """
    c = diag.shape[0] // 2
    f = np.zeros(c + 1, dtype=np.float64)
    for a in range(diag.ndim):
        v = diag.max(axis=tuple(b for b in range(diag.ndim) if b != a))
        f = np.maximum(f, np.maximum(v[c:], v[c::-1]))
    return np.maximum.accumulate(f[::-1])[::-1]


def _place_diagonals(coef: np.ndarray, window: Window) -> np.ndarray:
    """The (size, size) matrix T(i, j) = coef[i - j + 2R], coef of shape (4R+1,)^d."""
    s, n = window.side, window.size
    view = sliding_window_view(coef, (s,) * window.d)  # view[p, q] = coef[p + q]
    flipped = view[(Ellipsis,) + (slice(None, None, -1),) * window.d]  # q -> s - 1 - q
    return np.ascontiguousarray(flipped.reshape(n, n))


def decay_profile(a: LocalizedMatrix, weight=None) -> DecayProfile:
    """Ring suprema h(m) = sup{|a(i,j)| u(i,j) : |i-j|_inf >= m}, m = 0..2R.

    ``weight`` is any object with a ``grid(window)`` method returning the
    pointwise weight u(i, j) over the window; None means the trivial weight.
    """
    w = a.window
    mag = np.abs(a.data)
    if weight is not None:
        mag = mag * weight.grid(w)
    return DecayProfile(ring_suprema(diagonal_suprema(mag, w)), w.d)


def adjoint(a: LocalizedMatrix) -> LocalizedMatrix:
    return LocalizedMatrix(a.window, a.data.conj().T)


def add(a: LocalizedMatrix, b: LocalizedMatrix) -> LocalizedMatrix:
    _check_same_window(a, b)
    return LocalizedMatrix(a.window, a.data + b.data, copy=False)


def scale(alpha, a: LocalizedMatrix) -> LocalizedMatrix:
    return LocalizedMatrix(a.window, complex(alpha) * a.data, copy=False)


def multiply(a: LocalizedMatrix, b: LocalizedMatrix) -> LocalizedMatrix:
    """(AB)(i,j) = sum_k a(i,k) b(k,j) over the window; exact finite sums."""
    _check_same_window(a, b)
    return LocalizedMatrix(a.window, a.data @ b.data, copy=False)


def apply(a: LocalizedMatrix, c: LatticeSequence) -> LatticeSequence:
    _check_same_window(a, c)
    return LatticeSequence(a.window, a.data @ c.data, copy=False)


def embed(a: LocalizedMatrix, window: Window) -> LocalizedMatrix:
    """Zero-extend a matrix to a larger window (same dimension)."""
    if window.d != a.window.d:
        raise WindowMismatchError("embed requires equal dimensions")
    if window.radius < a.window.radius:
        raise ValueError("target window must not be smaller")
    pos = np.array([window.flat(idx) for idx in a.window.indices])
    data = np.zeros((window.size, window.size), dtype=np.complex128)
    data[np.ix_(pos, pos)] = a.data
    return LocalizedMatrix(window, data, copy=False)


def restrict(a: LocalizedMatrix, window: Window) -> LocalizedMatrix:
    """Restrict a matrix to a smaller window (drop outside entries)."""
    if window.d != a.window.d:
        raise WindowMismatchError("restrict requires equal dimensions")
    if window.radius > a.window.radius:
        raise ValueError("target window must not be larger")
    pos = np.array([a.window.flat(idx) for idx in window.indices])
    return LocalizedMatrix(window, a.data[np.ix_(pos, pos)])


def _as_offset(window: Window, offset) -> np.ndarray:
    if isinstance(offset, (int, np.integer)):
        vec = np.zeros(window.d, dtype=np.int64)
        vec[0] = int(offset)
        return vec
    vec = np.asarray(offset, dtype=np.int64)
    if vec.shape != (window.d,):
        raise ValueError(f"offset {offset!r} does not match dimension {window.d}")
    return vec


def generate(kind: str, window: Window, seed=None, **params) -> LocalizedMatrix:
    """Deterministic matrix generators.

    kinds: identity | shift | banded_random(bandwidth, amplitude)
    | polynomial_decay_random(alpha, amplitude) | toeplitz_from_coeffs(coeffs).
    Random kinds are reproducible for a fixed seed.
    """
    n = window.size
    if kind == "identity":
        return LocalizedMatrix(window, np.eye(n, dtype=np.complex128), copy=False)

    if kind == "shift":
        off = _as_offset(window, params.pop("offset", 1))
        if params:
            raise ValueError(f"unknown shift params: {sorted(params)}")
        return generate("toeplitz_from_coeffs", window, coeffs={tuple(off): 1.0})

    if kind == "banded_random":
        bandwidth = int(params.pop("bandwidth"))
        amplitude = float(params.pop("amplitude", 1.0))
        if params:
            raise ValueError(f"unknown banded_random params: {sorted(params)}")
        if bandwidth < 0 or amplitude <= 0:
            raise ValueError("banded_random needs bandwidth >= 0, amplitude > 0")
        rng = np.random.default_rng(seed)
        re = rng.uniform(-1.0, 1.0, (n, n))
        im = rng.uniform(-1.0, 1.0, (n, n))
        band = window.dist <= bandwidth
        data = (re + 1j * im) * (amplitude / np.sqrt(2.0)) * band
        return LocalizedMatrix(window, data, copy=False)

    if kind == "polynomial_decay_random":
        alpha = float(params.pop("alpha"))
        amplitude = float(params.pop("amplitude", 1.0))
        if params:
            raise ValueError(f"unknown polynomial_decay_random params: {sorted(params)}")
        if alpha < 0 or amplitude <= 0:
            raise ValueError("polynomial_decay_random needs alpha >= 0, amplitude > 0")
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 1.0, (n, n)) * amplitude
        mag *= (1.0 + window.dist) ** (-alpha)
        phase = rng.uniform(0.0, 2.0 * np.pi, (n, n))
        return LocalizedMatrix(window, mag * np.exp(1j * phase), copy=False)

    if kind == "toeplitz_from_coeffs":
        coeffs = params.pop("coeffs")
        if params:
            raise ValueError(f"unknown toeplitz params: {sorted(params)}")
        span = 2 * window.radius
        coef = np.zeros((2 * span + 1,) * window.d, dtype=np.complex128)
        for key, v in coeffs.items():
            vec = _as_offset(window, key)
            if np.abs(vec).max() <= span:  # farther diagonals miss the window
                coef[tuple(vec + span)] = complex(v)
        return LocalizedMatrix(window, _place_diagonals(coef, window), copy=False)

    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# File formats.  Matrix JSON: {"d", "radius", "entries": [[i.., j.., re, im]]}
# with zeros omitted and entries in lexicographic (i, j) order.  Sequence JSON
# is analogous with a single index.  Profiles export as CSV "n,h".
# ---------------------------------------------------------------------------


def matrix_to_dict(a: LocalizedMatrix) -> dict:
    entries = []
    for (i, j), v in a.entries():
        entries.append([*map(int, i), *map(int, j), float(v.real), float(v.imag)])
    return {"d": a.window.d, "radius": a.window.radius, "entries": entries}


def matrix_from_dict(payload: dict) -> LocalizedMatrix:
    window = Window(int(payload["d"]), int(payload["radius"]))
    d = window.d
    data = np.zeros((window.size, window.size), dtype=np.complex128)
    for row in payload["entries"]:
        if len(row) != 2 * d + 2:
            raise ValueError(f"entry row of length {len(row)} for d={d}")
        i, j = row[:d], row[d : 2 * d]
        data[window.flat(i), window.flat(j)] = complex(row[2 * d], row[2 * d + 1])
    return LocalizedMatrix(window, data, copy=False)


def save_matrix(a: LocalizedMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(a), fh, sort_keys=True)


def load_matrix(path) -> LocalizedMatrix:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


def sequence_to_dict(c: LatticeSequence) -> dict:
    ix = c.window.indices
    entries = []
    for pos in np.flatnonzero(c.data):
        v = c.data[pos]
        entries.append([*map(int, ix[pos]), float(v.real), float(v.imag)])
    return {"d": c.window.d, "radius": c.window.radius, "entries": entries}


def sequence_from_dict(payload: dict) -> LatticeSequence:
    window = Window(int(payload["d"]), int(payload["radius"]))
    d = window.d
    data = np.zeros(window.size, dtype=np.complex128)
    for row in payload["entries"]:
        if len(row) != d + 2:
            raise ValueError(f"entry row of length {len(row)} for d={d}")
        data[window.flat(row[:d])] = complex(row[d], row[d + 1])
    return LatticeSequence(window, data, copy=False)


def save_sequence(c: LatticeSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(c), fh, sort_keys=True)


def load_sequence(path) -> LatticeSequence:
    with open(path) as fh:
        return sequence_from_dict(json.load(fh))


def profile_to_csv(profile: DecayProfile, path=None) -> str:
    lines = ["n,h"]
    for n, h in enumerate(profile.values):
        lines.append(f"{n},{float(h)!r}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
