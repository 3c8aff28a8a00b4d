"""The benchmark workloads and the oracles that check their outputs.

Each workload is a closed loop with one client: construction is the set-up
(imports, inputs made from the seed, oracle values), ``run()`` is one timed
pass over a fixed mix of calls into ``offdiag``, and ``check(output)`` returns
the list of ways the pass's output missed its oracle (empty when correct).
The seed only ever reaches ``offdiag`` through the inputs made here, except
for ``suite``, whose input is the seed itself.

The oracles are plain functions so that tests can feed them perturbed
outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-10  # Neumann tolerance requested from the engine
DENSE_ERR = 1e-8  # max-entry distance allowed from the dense solve
CRITERIA = tuple(f"C{k:02d}" for k in range(1, 15))


# ---------------------------------------------------------------------------
# suite: the 14-criterion battery with artifact writing.
# ---------------------------------------------------------------------------


def check_suite(results, report_path) -> list[str]:
    """Every criterion ran, passed, and is recorded as passed on disk."""
    problems = []
    cids = tuple(r.cid for r in results)
    if cids != CRITERIA:
        problems.append(f"criteria run {cids}, expected {CRITERIA}")
    problems += [f"{r.cid} failed: {r.summary}" for r in results if not r.passed]
    try:
        payload = json.loads(Path(report_path).read_text())
        recorded = tuple(c["cid"] for c in payload["criteria"] if c["passed"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable suite report: {exc}"]
    if recorded != CRITERIA:
        problems.append(f"suite_report.json records {recorded} as passed")
    return problems


class Suite:
    def __init__(self, seed: int, workdir: Path):
        from offdiag import cli, suite  # noqa: F401  (run_all imports cli lazily)

        self.seed = seed
        self.out = Path(workdir) / "suite_out"
        self.suite = suite

    def run(self):
        return self.suite.run_all(seed=self.seed, quick=False, out_dir=self.out)

    def check(self, results) -> list[str]:
        return check_suite(results, self.out / "suite_report.json")


# ---------------------------------------------------------------------------
# invert: the Neumann engine on real Toeplitz, complex banded and Gram inputs.
# ---------------------------------------------------------------------------


def check_inversion(name: str, a, x, report, dense, left: bool = False) -> list[str]:
    """Converged, residuals within TOL, and within DENSE_ERR of the dense solve.

    For a left inverse only X A - I is a claim of the engine; A X - I is not.
    """
    problems = []
    if not report.converged:
        problems.append(f"{name}: not converged after {report.terms_used} terms")
    if not report.two_sided_residual <= TOL:
        problems.append(f"{name}: reported two-sided residual {report.two_sided_residual:.3e}")
    eye = np.eye(a.shape[0])
    sides = {"XA-I": x @ a - eye} if left else {"XA-I": x @ a - eye, "AX-I": a @ x - eye}
    for label, r in sides.items():
        res = float(np.abs(r).max())
        if not res <= TOL:
            problems.append(f"{name}: max|{label}| = {res:.3e} > {TOL:g}")
    err = float(np.abs(x - dense).max())
    if not err <= DENSE_ERR:
        problems.append(f"{name}: max-entry error {err:.3e} against the dense solve")
    return problems


class Invert:
    """The `offdiag invert` / `leftinv` path: each pass reads every operand
    from its matrix JSON file, then runs the engine on it."""

    def __init__(self, seed: int, workdir: Path):
        from offdiag import inversion, lattice
        from offdiag.lattice import LocalizedMatrix, Window, generate

        def toeplitz(d, radius, coeffs):
            return generate("toeplitz_from_coeffs", Window(d, radius), coeffs=coeffs)

        # 3I plus a seeded complex band whose l2 norm is at most 5 * 0.5 < 3,
        # so the operand is invertible for every seed.
        win = Window(1, 128)
        rng = np.random.default_rng([seed, 2])
        band = np.abs(win.indices[:, None, 0] - win.indices[None, :, 0]) <= 2
        noise = rng.uniform(-1, 1, band.shape) + 1j * rng.uniform(-1, 1, band.shape)
        complex_op = LocalizedMatrix(win, 3.0 * np.eye(win.size)
                                     + band * noise * (0.5 / math.sqrt(2)))

        self.cases = [
            ("2I+S d=1 R=256", "wiener_invert", toeplitz(1, 256, {0: 2.0, 1: 1.0})),
            ("3I+S1+0.5S2 d=2 R=10", "wiener_invert",
             toeplitz(2, 10, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 0.5})),
            ("3I+band complex d=1 R=128", "wiener_invert", complex_op),
            ("left 2I+S d=1 R=64", "left_inverse", toeplitz(1, 64, {0: 2.0, 1: 1.0})),
        ]
        self.dense = [np.linalg.solve(a.data, np.eye(a.window.size)) for _, _, a in self.cases]
        self.paths = [Path(workdir) / f"operand{k}.json" for k in range(len(self.cases))]
        for path, (_, _, a) in zip(self.paths, self.cases):
            path.parent.mkdir(parents=True, exist_ok=True)
            lattice.save_matrix(a, path)
        self.inversion, self.lattice = inversion, lattice

    def run(self):
        return [getattr(self.inversion, fn)(self.lattice.load_matrix(path), tol=TOL)
                for path, (_, fn, _) in zip(self.paths, self.cases)]

    def check(self, outputs) -> list[str]:
        problems = []
        for (name, fn, a), dense, (x, rep) in zip(self.cases, self.dense, outputs):
            problems += check_inversion(name, a.data, x.data, rep, dense,
                                        left=fn == "left_inverse")
        return problems


# ---------------------------------------------------------------------------
# stability: Toeplitz stability over a radius ladder, SVD and sampled paths.
# ---------------------------------------------------------------------------


def check_stability(name: str, report, expected: str, n_radii: int) -> list[str]:
    """The expected verdict overall and at every radius, with lower <= upper."""
    problems = []
    if report.verdict != expected:
        problems.append(f"{name}: verdict {report.verdict}, expected {expected}")
    if len(report.brackets) != n_radii:
        problems.append(f"{name}: {len(report.brackets)} brackets for {n_radii} radii")
    for k, b in enumerate(report.brackets):
        if b.verdict != expected:
            problems.append(f"{name}: bracket {k} verdict {b.verdict}, expected {expected}")
        if not b.lower <= b.upper:
            problems.append(f"{name}: bracket {k} lower {b.lower!r} > upper {b.upper!r}")
    return problems


class Stability:
    SYMBOLS = (("2@0,1@1", "stable"), ("1@0,-1@1", "degrading"))
    QS = (2.0, 4.0)
    RADII = (64, 128, 256, 512)
    TRIALS = 50

    def __init__(self, seed: int, workdir: Path):
        from offdiag import symbols

        self.seed = seed
        self.symbols = symbols
        self.cases = [(f"{text} q={q:g}", symbols.parse_coeffs(text), q, verdict)
                      for text, verdict in self.SYMBOLS for q in self.QS]

    def run(self):
        return [self.symbols.toeplitz_stability_criterion(sym, q, radii=self.RADII,
                                                          trials=self.TRIALS, seed=self.seed)
                for _, sym, q, _ in self.cases]

    def check(self, reports) -> list[str]:
        problems = []
        for (name, _, _, verdict), rep in zip(self.cases, reports):
            problems += check_stability(name, rep, verdict, len(self.RADII))
        return problems


WORKLOADS = {"suite": Suite, "invert": Invert, "stability": Stability}
