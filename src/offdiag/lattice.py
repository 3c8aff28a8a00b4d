"""Finite index windows of Z^d and the objects living on them.

A window is the cube [-R, R]^d enumerated in a fixed lexicographic order.
Matrices and sequences supported on a window are exact members of every
off-diagonal-decay class handled downstream, so algebra identities and norm
inequalities can be checked without truncation error.  Windows only act as
approximations when a generator family is re-sampled at growing radii to
emulate an infinite operator.

Window geometry has one kernel, built without n x n index tables:
``diagonal_suprema`` (suprema along each diagonal i - j = k), ``ring_suprema``
(their envelope over |k|_inf >= m, summed over the lattice by ``ring_lp``)
and the inverse placement of a (4R+1)^d diagonal array, which assembles
Toeplitz matrices and, through ``radial_matrix``, functions of |i - j|_inf
from their 2R + 1 values.  ``diagonal_suprema`` walks its padded layout in
chunks of at most ``_CHUNK_BYTES`` (1 MiB; rows, or slices of rows where a
row is larger) and takes |.| of each chunk as it fills the buffer, so
besides its output it holds one such buffer and the chunk's magnitude.  A
trivial-weight decay profile holds no more: it never makes |a| whole.
``Window.flat`` maps one lattice point or an (..., d) array of them to
positions; it, the generators' offsets and symbol indices read coordinates
through ``integer_coords``, which refuses one that is not an integer.

A matrix is stored real (float64, one real n x n array) exactly when every
imaginary part of its input is zero, and complex (complex128, two) otherwise.
The producers build real arrays directly: the identity, shifts and Toeplitz
matrices with real coefficients from ``generate``, and matrix files whose
imaginary column is all zero.  Sequences stay complex.

A matrix meets a weight in two places: ``weighted_magnitude`` makes the
weighted magnitude |a(i, j)| u(i, j), and ``weighted_pass`` its diagonal
suprema, read from that magnitude under a weight and from the matrix itself
without one.  The decay profile and the diagonal and ring norms read the
pass, and only the row/column norm at finite p reads the magnitude.  A decay
profile is a plain read-only float64 array h(0..2R), the ring suprema of
that pass.  Inside a ``sharing(kind, owner)`` block ``shared(kind, key,
make)`` makes each key's value once: the "passes" kind keys weighted passes
and magnitudes, the "sigma" kind ``stability``'s sigma pairs, and the
"constants" kind the weight constants A_q(w) and C_p(v, u), which depend on
the weights alone.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain

import numpy as np

__all__ = [
    "Window",
    "LocalizedMatrix",
    "LatticeSequence",
    "WindowMismatchError",
    "integer_coords",
    "ring_counts",
    "ring_lp",
    "diagonal_suprema",
    "ring_suprema",
    "radial_matrix",
    "weighted_magnitude",
    "weighted_pass",
    "sharing",
    "shared",
    "decay_profile",
    "adjoint",
    "add",
    "scale",
    "multiply",
    "matvec",
    "restrict",
    "generate",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "sequence_to_dict",
    "sequence_from_dict",
    "read_rows",
    "json_object",
    "json_number",
    "is_number",
    "integral",
    "save_sequence",
    "load_sequence",
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
        grid = np.indices((self.side,) * self.d, dtype=np.int64).reshape(self.d, -1)
        pts = np.ascontiguousarray(grid.T - self.radius)
        pts.setflags(write=False)
        return pts

    def flat(self, index):
        """Lexicographic position of a lattice point, or of each point of an
        (..., d) integer array.

        An int is a point at d = 1.  Returns an int for one point and an int64
        array of shape (...) otherwise.  A coordinate that is not an integer
        (1.5, nan, inf) raises ValueError; integral floats such as 2.0 pass.
        """
        idx = integer_coords(index)
        if idx.ndim == 0:
            idx = idx.reshape(1)
        if idx.shape[-1] != self.d:
            raise ValueError(f"index of shape {idx.shape} does not match dimension {self.d}")
        coord = idx + self.radius  # 0 .. side - 1 inside the window
        outside = (coord < 0) | (coord >= self.side)
        if outside.any():
            pts = idx.reshape(-1, self.d)
            bad = tuple(int(x) for x in pts[outside.reshape(pts.shape).any(axis=1)][0])
            raise ValueError(f"index {bad} outside window radius {self.radius}")
        pos = coord @ self.side ** np.arange(self.d - 1, -1, -1)
        return int(pos) if idx.ndim == 1 else pos


def integer_coords(index) -> np.ndarray:
    """index as an int64 array; a coordinate that is not an integer (1.5, nan,
    inf) raises ValueError, and integral floats such as 2.0 pass."""
    idx = np.asarray(index)
    if idx.dtype.kind == "f":
        frac = ~(np.isfinite(idx) & (idx == np.trunc(idx)))
        if frac.any():
            raise ValueError(f"lattice point coordinate {float(idx[frac][0])!r} "
                             f"is not an integer")
    return idx.astype(np.int64, copy=False)


def ring_counts(d: int, m_max: int, m_min: int = 0) -> np.ndarray:
    """Number of k in Z^d with |k|_inf = m, for m = m_min .. m_max, as a float array."""
    m = np.arange(m_min, m_max + 1, dtype=np.float64)
    return (2 * m + 1) ** d - np.maximum(2 * m - 1, 0.0) ** d  # 1 at m = 0


def ring_lp(h: np.ndarray, d: int, p: float = 1.0, m_min: int = 0) -> float:
    """(sum_{m >= m_min} ring(m, d) h(m)^p)^{1/p} for a ring profile h(0..M).

    This is the l^p norm over k in Z^d, |k|_inf >= m_min, of h(|k|_inf); with
    a nonincreasing h the p = inf case is h(m_min).  Past the end it is 0.
    """
    if math.isinf(p):
        return float(h[m_min]) if m_min < h.size else 0.0
    return float((ring_counts(d, h.size - 1, m_min) * h[m_min:] ** p).sum() ** (1.0 / p))


def _check_same_window(a, b):
    if a.window != b.window:
        raise WindowMismatchError(f"windows differ: {a.window} vs {b.window}")


class LocalizedMatrix:
    """Finitely supported matrix over a window, real or complex.

    Stored dense over the window: as float64 exactly when every imaginary
    part of the input is zero (a NaN one is not zero), as complex128
    otherwise.  An absent entry and a stored zero are the same object
    semantically, and serialization never emits zeros.  Instances are
    immutable after construction.
    """

    __slots__ = ("window", "data")

    def __init__(self, window: Window, data, *, copy: bool = True):
        arr = np.asarray(data)
        if arr.shape != (window.size, window.size):
            raise ValueError(
                f"data shape {arr.shape} does not match window size {window.size}"
            )
        # the leading row decides most complex input; the rest is read only when it is real
        if arr.dtype.kind == "c" and not (arr.imag[0].any() or arr.imag[1:].any()):
            arr, copy = arr.real, True  # a strided view of the input: compacted
        dtype = np.complex128 if arr.dtype.kind == "c" else np.float64
        arr = (np.array if copy else np.asarray)(arr, dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LocalizedMatrix is immutable")

    def entry(self, i, j) -> complex:
        return complex(self.data[self.window.flat(i), self.window.flat(j)])

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
    def delta(cls, window: Window, at=0) -> "LatticeSequence":
        """Unit impulse at the given lattice point (default origin)."""
        if isinstance(at, int) and window.d > 1:
            at = (at,) * window.d
        data = np.zeros(window.size, dtype=np.complex128)
        data[window.flat(at)] = 1.0
        return cls(window, data, copy=False)

    def value(self, i) -> complex:
        return complex(self.data[self.window.flat(i)])


_CHUNK_BYTES = 1 << 20  # bound on diagonal_suprema's padded buffer


def diagonal_suprema(x: np.ndarray, window: Window) -> np.ndarray:
    """sup_{i-j=k} |x(i, j)| for every k in [-2R, 2R]^d, shape (4R+1,)^d, float64.

    One axis at a time: the rows of the (i_a, j_a) block, reversed in j_a,
    are laid into a zero-padded buffer of row length 2 side and read back
    with row length 2 side - 1.  That shifts row i_a by i_a, putting j_a in
    column i_a - j_a + 2R, so a max over i_a leaves the diagonal index k_a,
    which moves to the last axis.  The first axis takes |.| of each chunk
    of x, real or complex, as it fills the buffer; the later axes read
    magnitudes already.  max is exact under any grouping.

    The rows go through the buffer in chunks of at most ``_CHUNK_BYTES``
    (one row at least): a chunk starting at row i0 is shifted by i0 less,
    so its max merges into columns i0.. of the first chunk's, and a window
    whose rows fit one chunk runs as one buffer.  Where one row outgrows a
    chunk (d >= 2, large R), the first trailing axis, which the max treats
    independently, is cut into slices one entry wide, each chunked by rows;
    a chunk then holds one row of a slice at least.  Scratch: one float64
    chunk buffer at a time, the chunk's |.| (half the buffer) on the first
    axis, and the per-axis results, about 2/side of x's entries each.
    """
    s, d = window.side, window.d
    # axes i_1, j_1, i_2, j_2, ...
    x = x.reshape((s,) * (2 * d)).transpose([k for a in range(d) for k in (a, a + d)])
    for axis in range(d):
        rest = x.shape[2:]
        row = 2 * s * 8 * math.prod(rest)  # one float64 row of the padded buffer
        if row <= _CHUNK_BYTES or not rest:
            out = _row_chunks_max(x, s, _CHUNK_BYTES // row or 1, axis == 0)
        else:  # slices one entry wide along the first trailing axis, each in row chunks
            unit = row // rest[0]  # one row of a slice one entry wide
            out = np.empty((2 * s - 1,) + rest)
            for c in range(rest[0]):
                out[:, c] = _row_chunks_max(x[:, :, c], s, _CHUNK_BYTES // unit or 1, axis == 0)
        x = out.transpose(list(range(1, out.ndim)) + [0])
    return np.ascontiguousarray(x)


def _row_chunks_max(x: np.ndarray, s: int, rows: int, absolute: bool) -> np.ndarray:
    """max over rows i of x, shape (s, s) + rest, of row i (|row i| when
    ``absolute``) reversed and shifted right by i, ``rows`` rows a buffer."""
    out = _skewed_max(x[:rows], s, absolute)
    for i0 in range(rows, s, rows):  # past 2 side - 1 - i0, top holds padding only
        top = _skewed_max(x[i0 : i0 + rows], s, absolute)
        np.maximum(out[i0:], top[: 2 * s - 1 - i0], out=out[i0:])
    return out


def _skewed_max(x: np.ndarray, s: int, absolute: bool) -> np.ndarray:
    """max over rows i of x, shape (m, s) + rest, of row i (|row i| when
    ``absolute``) reversed and shifted right by i; the padded buffer is
    freed on return."""
    m, rest = x.shape[0], x.shape[2:]
    buf = np.zeros((m, 2 * s) + rest)
    # |.| in the chunk's own layout, then the reversed copy: |.| of the reversed
    # view, written straight into the buffer, runs slower
    buf[:, :s] = (np.abs(x) if absolute else x)[:, ::-1]
    skew = buf.reshape((2 * s * m,) + rest)[: m * (2 * s - 1)]
    return skew.reshape((m, 2 * s - 1) + rest).max(axis=0)


def ring_suprema(diag: np.ndarray) -> np.ndarray:
    """h(m) = sup{diag(k) : |k|_inf >= m}, m = 0..2R, from diagonal suprema.

    |k|_inf >= m exactly when some |k_a| >= m, so h is the reverse running
    max of the per-axis marginal suprema folded onto |k_a|.  Returns a fresh
    C-contiguous array: sums over a reversed view may round differently.
    """
    c = diag.shape[0] // 2
    f = np.zeros(c + 1, dtype=np.float64)
    for a in range(diag.ndim):
        v = diag.max(axis=tuple(b for b in range(diag.ndim) if b != a))
        f = np.maximum(f, np.maximum(v[c:], v[c::-1]))
    return np.ascontiguousarray(np.maximum.accumulate(f[::-1])[::-1])


def _place_diagonals(coef: np.ndarray, window: Window) -> np.ndarray:
    """The (size, size) matrix T(i, j) = coef[i - j + 2R], coef of shape (4R+1,)^d."""
    s, n = window.side, window.size
    if coef.shape != (2 * s - 1,) * window.d:  # the strided view would read past coef
        raise ValueError(f"coefficient shape {coef.shape} does not fit {window}")
    # view[p, q] = coef[p + q]: p + q <= 2 side - 2 = 4R stays inside coef
    view = np.ndarray((s,) * (2 * window.d), coef.dtype, coef, strides=coef.strides * 2)
    flipped = view[(Ellipsis,) + (slice(None, None, -1),) * window.d]  # q -> s - 1 - q
    return np.ascontiguousarray(flipped.reshape(n, n))


def radial_matrix(values, window: Window) -> np.ndarray:
    """The (size, size) matrix values[|i - j|_inf], values indexed by m = 0..2R."""
    values = np.asarray(values)
    if values.shape != (window.side,):
        raise ValueError(f"need values for distances 0..{window.side - 1}, got shape {values.shape}")
    k = np.abs(np.arange(-2 * window.radius, 2 * window.radius + 1))
    return _place_diagonals(values[reduce(np.maximum.outer, [k] * window.d)], window)


# kind -> (owner, {key: value}) for each kind with an open block, None outside all
_SHARED: ContextVar[dict | None] = ContextVar("shared", default=None)


@contextmanager
def sharing(kind: str, owner=None):
    """A block inside which ``shared(kind, ...)`` makes each key's value once.

    A block inside an open block of the same kind and the same owner (``is``)
    reuses its values; one of another owner starts afresh until it exits.  The
    outermost block drops its values on exit or raise.  Sound while the owner
    and every key determine each value, and nothing they name changes.
    """
    open_ = _SHARED.get() or {}
    if kind in open_ and open_[kind][0] is owner:
        yield
        return
    token = _SHARED.set({**open_, kind: (owner, {})})
    try:
        yield
    finally:
        _SHARED.reset(token)


def shared(kind: str, key, make):
    """``make()``, made once per key while a ``sharing(kind)`` block is open."""
    scope = (_SHARED.get() or {}).get(kind)
    if scope is None:
        return make()
    if key not in scope[1]:
        scope[1][key] = make()
    return scope[1][key]


def weighted_magnitude(a: LocalizedMatrix, weight=None) -> np.ndarray:
    """The read-only weighted magnitude |a(i,j)| u(i,j), one real n x n array,
    shared by (matrix object, weight object) in a ``sharing("passes")`` block.

    ``weight`` is any object with a ``descriptor`` and a ``grid(window)``
    method returning the pointwise weight u(i, j) over the window; None means
    the trivial weight.  A finite |a| whose weighted magnitude overflows
    raises ValueError; a matrix that is not finite itself passes as it is.
    """
    return shared("passes", ("magnitude", a, weight), lambda: _weighted_magnitude(a, weight))


def _weighted_magnitude(a: LocalizedMatrix, weight) -> np.ndarray:
    mag = np.abs(a.data)
    if weight is not None:
        with np.errstate(over="ignore"):  # an overflow is refused below
            mag *= weight.grid(a.window)
        # mag >= 0 is finite exactly where its max is; a matrix that is not finite
        # itself passes, so only the weight can have overflowed
        if not math.isfinite(mag.max(initial=0.0)) and np.isfinite(np.abs(a.data)).all():
            raise ValueError(f"the weighted magnitude |a| u overflows under the "
                             f"{weight.descriptor} weight")
    mag.setflags(write=False)
    return mag


def weighted_pass(a: LocalizedMatrix, weight=None) -> np.ndarray:
    """The read-only ``diagonal_suprema`` of |a(i,j)| u(i,j), shared by
    (matrix object, weight object) in a ``sharing("passes")`` block.

    Without a weight they are read from a's data, whose |.| the kernel takes
    one chunk at a time, so no n x n magnitude is made; under one, from
    ``weighted_magnitude(a, weight)``, which refuses an overflow.  For a
    radial weight u(i, j) = psi(|i - j|_inf), such as every ``WeightMatrix``,
    the suprema equal the unweighted ones times psi(|k|_inf) bit for bit,
    since rounding x -> x psi is monotone.
    """
    return shared("passes", (a, weight), lambda: _weighted_pass(a, weight))


def _weighted_pass(a: LocalizedMatrix, weight) -> np.ndarray:
    mag = a.data if weight is None else weighted_magnitude(a, weight)
    diag = diagonal_suprema(mag, a.window)
    diag.setflags(write=False)
    return diag


def decay_profile(a: LocalizedMatrix, weight=None) -> np.ndarray:
    """Ring suprema h(m) = sup{|a(i,j)| u(i,j) : |i-j|_inf >= m}, m = 0..2R,
    read from the ``weighted_pass`` of (a, weight): a read-only float64
    array, nonnegative and nonincreasing by construction."""
    h = ring_suprema(weighted_pass(a, weight))
    h.setflags(write=False)
    return h


def adjoint(a: LocalizedMatrix) -> LocalizedMatrix:
    return LocalizedMatrix(a.window, a.data.conj().T)


def add(a: LocalizedMatrix, b: LocalizedMatrix) -> LocalizedMatrix:
    _check_same_window(a, b)
    return LocalizedMatrix(a.window, a.data + b.data, copy=False)


def scale(alpha, a: LocalizedMatrix) -> LocalizedMatrix:
    alpha = complex(alpha)
    return LocalizedMatrix(a.window, (alpha.real if alpha.imag == 0 else alpha) * a.data,
                           copy=False)


def multiply(a: LocalizedMatrix, b: LocalizedMatrix) -> LocalizedMatrix:
    """(AB)(i,j) = sum_k a(i,k) b(k,j) over the window; exact finite sums."""
    _check_same_window(a, b)
    return LocalizedMatrix(a.window, a.data @ b.data, copy=False)


def matvec(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """data @ x for a complex vector x.  A float64 ``data`` multiplies the (n, 2)
    float64 view of x in one real GEMM, never cast to complex as numpy's mixed
    product would be on every call; the two agree to roundoff."""
    if data.dtype.kind == "c":
        return data @ x
    pairs = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    return (data @ pairs).view(np.complex128).reshape(-1)


def restrict(a: LocalizedMatrix, window: Window) -> LocalizedMatrix:
    """Restrict a matrix to a smaller window (drop outside entries)."""
    if window.d != a.window.d:
        raise WindowMismatchError("restrict requires equal dimensions")
    if window.radius > a.window.radius:
        raise ValueError("target window must not be larger")
    pos = a.window.flat(window.indices)
    return LocalizedMatrix(window, a.data[np.ix_(pos, pos)], copy=False)  # a fresh array


def _as_offset(window: Window, offset) -> np.ndarray:
    if isinstance(offset, (int, np.integer)):
        vec = np.zeros(window.d, dtype=np.int64)
        vec[0] = int(offset)
        return vec
    vec = integer_coords(offset)
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
        return LocalizedMatrix(window, np.eye(n), copy=False)

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
        if bandwidth < 0 or not 0 < amplitude < math.inf:
            raise ValueError("banded_random needs bandwidth >= 0, finite amplitude > 0")
        rng = np.random.default_rng(seed)
        re = rng.uniform(-1.0, 1.0, (n, n))
        im = rng.uniform(-1.0, 1.0, (n, n))
        band = radial_matrix(np.arange(window.side) <= bandwidth, window)
        data = (re + 1j * im) * (amplitude / np.sqrt(2.0)) * band
        return LocalizedMatrix(window, data, copy=False)

    if kind == "polynomial_decay_random":
        alpha = float(params.pop("alpha"))
        amplitude = float(params.pop("amplitude", 1.0))
        if params:
            raise ValueError(f"unknown polynomial_decay_random params: {sorted(params)}")
        if not (0 <= alpha < math.inf and 0 < amplitude < math.inf):
            raise ValueError("polynomial_decay_random needs finite alpha >= 0, amplitude > 0")
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 1.0, (n, n)) * amplitude
        mag *= radial_matrix((1.0 + np.arange(window.side)) ** (-alpha), window)
        phase = rng.uniform(0.0, 2.0 * np.pi, (n, n))
        return LocalizedMatrix(window, mag * np.exp(1j * phase), copy=False)

    if kind == "toeplitz_from_coeffs":
        coeffs = params.pop("coeffs")
        if params:
            raise ValueError(f"unknown toeplitz params: {sorted(params)}")
        span = 2 * window.radius
        coef = np.zeros((2 * span + 1,) * window.d, dtype=np.complex128)
        seen = set()
        for key, v in coeffs.items():
            vec = _as_offset(window, key)
            index = tuple(vec.tolist())
            if index in seen:  # 0 and (0,), say, name one offset
                raise ValueError(f"two coefficient rows at index {index}")
            seen.add(index)
            if np.abs(vec).max() <= span:  # farther diagonals miss the window
                coef[tuple(vec + span)] = complex(v)
        if not coef.imag.any():  # placed real: the (4R+1)^d coefficients are demoted, not n x n
            coef = np.ascontiguousarray(coef.real)
        return LocalizedMatrix(window, _place_diagonals(coef, window), copy=False)

    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# File formats.  Matrix JSON: {"d", "radius", "entries": [[i.., j.., re, im]]}
# with zeros omitted and entries in lexicographic (i, j) order.  Sequence JSON
# is analogous with a single index.  Profiles export as CSV "n,h".
# ---------------------------------------------------------------------------


def _rows(window: Window, data: np.ndarray) -> list:
    """File rows [p_1, .., p_k, re, im] of the nonzero cells of data, whose k
    axes each run over the window's points, in lexicographic order."""
    nz = np.nonzero(data)
    v = data[nz]
    cells = [window.indices[axis] for axis in nz] + [np.column_stack([v.real, v.imag])]
    # object columns turn into Python ints and floats in one tolist()
    return np.hstack([c.astype(object) for c in cells]).tolist()


def matrix_to_dict(a: LocalizedMatrix) -> dict:
    return {"d": a.window.d, "radius": a.window.radius, "entries": _rows(a.window, a.data)}


def read_rows(window: Window, rows, points: int, values: int):
    """Positions and values of file rows [p_1, .., p_points, v_1, .., v_values].

    Each row holds ``points`` lattice points of the window followed by
    ``values`` numbers.  Returns the row-major positions in the
    (size,)^points array and the (rows, values) float64 values.  A row of
    another length, rows or a row that is not a list, a cell that is not a
    number (a boolean included), a value that is not finite, a point that is not
    an integer point of the window and two rows at the same position raise ValueError.
    """
    d = window.d
    width = points * d + values
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("entry rows must be a list of lists")
    for row in rows:
        if len(row) != width:
            raise ValueError(f"entry row of length {len(row)} for d={d}")
    cells = list(chain.from_iterable(rows))
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, cells))):
        raise ValueError("entry rows must hold numbers only")
    try:  # an int past the float64 range is not a finite value either
        arr = np.fromiter(cells, np.float64, len(cells)).reshape(-1, width)
    except OverflowError:
        raise ValueError("entry values must be finite numbers") from None
    ix = arr[:, : points * d]
    inside = np.abs(ix) <= window.radius  # on the floats, before an int64 cast; NaN fails
    if not np.all(inside & (ix == np.trunc(ix))):
        if not np.all(np.isfinite(ix) & (ix == np.trunc(ix))):
            raise ValueError("entry rows must start with integer lattice points")
        row, col = np.nonzero(~inside)  # name the first such point as it was read
        bad = tuple(rows[row[0]][col[0] // d * d : (col[0] // d + 1) * d])
        raise ValueError(f"index {bad} outside window radius {window.radius}")
    pts = window.flat(ix.reshape(-1, points, d))
    pos = np.ravel_multi_index(tuple(pts.T), (window.size,) * points)
    if np.unique(pos).size != pos.size:
        raise ValueError("two entry rows at the same position")
    vals = arr[:, points * d :]
    if not np.all(np.isfinite(vals)):
        raise ValueError("entry values must be finite numbers")
    return pos, vals


def is_number(x) -> bool:
    """x is a JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def integral(x) -> bool:
    """x is a JSON number with an integer value (2 and 2.0, not 2.5, inf or true)."""
    return is_number(x) and (isinstance(x, int) or x.is_integer())


def json_object(payload, what: str) -> dict:
    """A parsed JSON document that must be an object; ValueError otherwise."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


def json_number(payload: dict, key: str, kind=float):
    """kind(payload[key]); a field that is not a JSON number (a string or a
    boolean included), or an int field that is not an integer, raises ValueError."""
    value = payload[key]
    if not (integral(value) if kind is int else is_number(value)):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"field {key!r} must be {noun}, got {value!r}")
    return kind(value)


def _complex_values(pairs: np.ndarray) -> np.ndarray:
    """complex(re, im) of each (re, im) row, exactly: a view of the float pairs."""
    return np.ascontiguousarray(pairs).view(np.complex128)[:, 0]


def matrix_from_dict(payload: dict) -> LocalizedMatrix:
    json_object(payload, "a matrix file")
    window = Window(json_number(payload, "d", int), json_number(payload, "radius", int))
    pos, vals = read_rows(window, payload["entries"], 2, 2)
    real = not vals[:, 1].any()  # built real, never demoted from complex
    data = np.zeros(window.size**2, dtype=np.float64 if real else np.complex128)
    data[pos] = vals[:, 0] if real else _complex_values(vals)
    return LocalizedMatrix(window, data.reshape(window.size, window.size), copy=False)


def save_matrix(a: LocalizedMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(a), fh, sort_keys=True)


def load_matrix(path) -> LocalizedMatrix:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


def sequence_to_dict(c: LatticeSequence) -> dict:
    return {"d": c.window.d, "radius": c.window.radius, "entries": _rows(c.window, c.data)}


def sequence_from_dict(payload: dict) -> LatticeSequence:
    json_object(payload, "a sequence file")
    window = Window(json_number(payload, "d", int), json_number(payload, "radius", int))
    pos, vals = read_rows(window, payload["entries"], 1, 2)
    data = np.zeros(window.size, dtype=np.complex128)
    data[pos] = _complex_values(vals)
    return LatticeSequence(window, data, copy=False)


def save_sequence(c: LatticeSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(c), fh, sort_keys=True)


def load_sequence(path) -> LatticeSequence:
    with open(path) as fh:
        return sequence_from_dict(json.load(fh))
