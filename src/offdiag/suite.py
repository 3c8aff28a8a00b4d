"""Acceptance battery: every exit criterion as a seeded, self-contained check.

Each criterion returns a CriterionResult with the measured numbers and a
pass/fail at the stated tolerance.  The pytest acceptance module and the
``suite`` CLI verb both run this registry through one runner, which times each
criterion and ANDs its wall-clock limit, if ``_LIMITS`` holds one, into the
verdict; so there is exactly one place where tolerances live.  Timings are
never serialized (artifact bytes must be reproducible).
"""

from __future__ import annotations

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inversion, muckenhoupt, norms, stability, symbols, weights
from .lattice import (LatticeSequence, LocalizedMatrix, Window, adjoint, add,
                      generate, scale, sharing)
from .muckenhoupt import WeightSequence
from .weights import WeightMatrix

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0  # stamped by the runner, never serialized


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# ---------------------------------------------------------------------------
# Shared corpus
# ---------------------------------------------------------------------------


def _pair_corpus(seed: int, n_pairs: int, r_cap: int = 12):
    """Seeded random matrix pairs alternating d = 1 and d = 2, R <= r_cap."""
    rng = np.random.default_rng([seed, 101])
    for k in range(n_pairs):
        d = 1 if k % 2 == 0 else 2
        r = int(rng.integers(2, r_cap + 1)) if d == 1 else int(rng.integers(2, min(r_cap, 6) + 1))
        win = Window(d, r)
        mats = []
        for _ in range(2):
            if rng.integers(0, 2) == 0:
                bw = int(rng.integers(1, max(2, r)))
                mats.append(generate("banded_random", win, seed=int(rng.integers(1 << 30)),
                                     bandwidth=bw))
            else:
                alpha = 2.0 + float(rng.uniform(0.0, 1.5))
                mats.append(generate("polynomial_decay_random", win,
                                     seed=int(rng.integers(1 << 30)), alpha=alpha))
        yield mats[0], mats[1], d, rng


def _weight_combos(d: int):
    u_poly = WeightMatrix.polynomial(2.0, d)
    return [
        (1.0, WeightMatrix.trivial(d), WeightMatrix.trivial(d)),
        (2.0, u_poly, WeightMatrix.constant(4.0, d)),
    ]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def c01_product_inequalities(seed: int, quick: bool) -> CriterionResult:
    n_pairs = 16 if quick else 200
    worst = math.inf
    checks = 0
    for a, b, d, _ in _pair_corpus(seed, n_pairs):
        for p, u, v in _weight_combos(d):
            rep = norms.product_inequality_check(a, b, p, u, v)
            worst = min(worst, rep.margin_split, rep.margin_algebra)
            checks += 2
    return CriterionResult(
        "C01", "product inequality margins (split + algebra forms)", worst >= -1e-10,
        f"worst margin {_fmt(worst)} over {checks} checks on {n_pairs} pairs",
        {"worst_margin": worst, "checks": checks, "pairs": n_pairs})


def c02_norm_axioms(seed: int, quick: bool) -> CriterionResult:
    n_pairs = 16 if quick else 200
    rels = [0.0]  # signed relative excesses, each > rtol a violation
    collapse = 0
    rtol = 1e-12
    for a, b, d, rng in _pair_corpus(seed, n_pairs):
        for p, u, _ in _weight_combos(d):
            # the report and the p = inf values weight a once; the block ends
            # before the once-used matrices below, so it keeps none of them
            with sharing("passes"):
                na = norms.norm_report(a, p, u)
                j = norms.jaffard_value(a, u)
                inf_vals = (norms.beurling_norm(a, math.inf, u),
                            norms.sjostrand_norm(a, math.inf, u),
                            norms.schur_norm(a, math.inf, u))
            # (lo, hi) pairs with lo <= hi: ordering row/col <= diagonal <= ring,
            # then the triangle inequality
            below = [(na.schur, na.sjostrand), (na.sjostrand, na.beurling),
                     (norms.beurling_norm(add(a, b), p, u),
                      na.beurling + norms.beurling_norm(b, p, u))]
            # (x, y) pairs with x = y: absolute homogeneity, adjoint invariance
            # (all built-in weights are symmetric)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            equal = [(norms.beurling_norm(scale(alpha, a), p, u), abs(alpha) * na.beurling),
                     (norms.beurling_norm(adjoint(a), p, u), na.beurling)]
            # solidness on a dominated copy
            damp = rng.uniform(0.0, 1.0, a.data.shape)
            nd = norms.norm_report(LocalizedMatrix(a.window, a.data * damp), p, u)
            below += [(nd.beurling, na.beurling), (nd.sjostrand, na.sjostrand),
                      (nd.schur, na.schur)]
            rels += [(lo - hi) / max(hi, 1e-300) for lo, hi in below]
            rels += [abs(x - y) / max(y, 1e-300) for x, y in equal]
            # p = infinity collapse
            collapse += sum(val != j for val in inf_vals)
    violations = sum(rel > rtol for rel in rels) + collapse
    worst_rel = max(rels)
    return CriterionResult(
        "C02", "norm axioms, ordering, solidness, p=inf collapse", violations == 0,
        f"{violations} violations; worst signed relative excess {_fmt(worst_rel)}",
        {"violations": violations, "worst_rel": worst_rel, "pairs": n_pairs})


def c03_identity_norm(seed: int, quick: bool) -> CriterionResult:
    failures = []
    for d in (1, 2):
        win = Window(d, 3)
        ident = generate("identity", win)
        forms = [WeightMatrix.trivial(d), WeightMatrix.polynomial(2.0, d),
                 WeightMatrix.subexponential(0.5, 1.0, d), WeightMatrix.constant(4.0, d),
                 WeightMatrix.polynomial(1.0, d)]
        for u in forms:
            diag_sup = float(np.diag(u.grid(win)).max())
            for p in (1.0, 2.0, math.inf):
                got = norms.beurling_norm(ident, p, u)
                if got != diag_sup:
                    failures.append((d, u.descriptor, p, got, diag_sup))
    return CriterionResult(
        "C03", "||I||_{p,u} equals sup_i u(i,i) exactly", not failures,
        f"{len(failures)} mismatches over all built-in weights, p in {{1,2,inf}}, d in {{1,2}}",
        {"failures": failures})


def c04_boundedness(seed: int, quick: bool) -> CriterionResult:
    n_draws = 20 if quick else 100
    rng = np.random.default_rng([seed, 104])
    worst = math.inf
    for k in range(n_draws):
        d = 1 if k % 2 == 0 else 2
        r = int(rng.integers(3, 11)) if d == 1 else int(rng.integers(2, 6))
        win = Window(d, r)
        a = generate("polynomial_decay_random", win, seed=int(rng.integers(1 << 30)), alpha=2.5)
        q = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        if rng.integers(0, 2) == 0:
            w = WeightSequence.trivial(win)
        else:
            if q == 1.0:
                alpha = float(rng.uniform(-0.5, 0.0))
            else:
                alpha = float(rng.uniform(max(-d + 0.25, -1.0), min(d * (q - 1) - 0.25, 3.0)))
            w = WeightSequence.power(win, alpha)
        p, u, v = _weight_combos(d)[int(rng.integers(0, 2))]
        rep = stability.boundedness_check(a, q, w, p, u, trials=4,
                                          seed=int(rng.integers(1 << 30)), v=v)
        worst = min(worst, rep.worst_margin)
    return CriterionResult(
        "C04", "weighted boundedness margins with scanned A_q", worst >= -1e-10,
        f"worst margin {_fmt(worst)} over {n_draws} draws",
        {"worst_margin": worst, "draws": n_draws})


def c05_inversion_oracle(seed: int, quick: bool) -> CriterionResult:
    r = 32 if quick else 64
    win = Window(1, r)
    a = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0})
    a_inv, rep = inversion.wiener_invert(a, tol=1e-10, k_max=500)
    dense = np.linalg.solve(a.data, np.eye(win.size))
    err_dense = float(np.abs(a_inv.data - dense).max())
    ix = win.indices[:, 0]
    diffs = ix[:, None] - ix[None, :]
    closed = np.where(diffs >= 0, 0.5 * (-0.5) ** np.maximum(diffs, 0), 0.0)
    err_closed = float(np.abs(a_inv.data - closed).max())
    prof = rep.inverse_profile
    err_prof = float(np.abs(prof[:21] - 0.5 ** (np.arange(21) + 1.0)).max())
    passed = err_dense <= 1e-8 and err_closed <= 1e-8 and err_prof <= 1e-8
    return CriterionResult(
        "C05", "Neumann inverse of 2I+S matches dense solve and closed form", passed,
        f"dense err {_fmt(err_dense)}, closed-form err {_fmt(err_closed)}, "
        f"profile err {_fmt(err_prof)}, {rep.terms_used} terms",
        {"err_dense": err_dense, "err_closed": err_closed, "err_profile": err_prof,
         "terms": rep.terms_used, "r0": rep.r0})


def c06_inverse_closedness(seed: int, quick: bool) -> CriterionResult:
    radii = (8, 16, 32, 64) if quick else (16, 32, 64, 128)
    rows = inversion.inverse_closedness_experiment(
        lambda win: generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0}),
        radii, p=1.0, weight=None, tol=1e-10, k_max=500)
    spread = abs(rows[-1].inverse_norm - rows[-2].inverse_norm)
    return CriterionResult(
        "C06", "inverse ring norms stabilize along the radius ladder", spread < 1e-3,
        f"last-two spread {_fmt(spread)}; norms "
        + ", ".join(_fmt(r.inverse_norm) for r in rows),
        {"radii": radii, "norms": [r.inverse_norm for r in rows], "spread": spread})


def c07_reciprocal(seed: int, quick: bool) -> CriterionResult:
    a = symbols.SymbolCoeffs(1, {0: 2.0, 1: 1.0})
    b, rep = symbols.reciprocal_coeffs(a, tol=1e-10)
    astar_err = abs(rep.astar_norm - 1.0)
    conv = symbols.convolve(a, b)
    resid = abs(conv.value(0) - 1.0) + sum(
        abs(v) for n, v in conv.coeffs.items() if n != (0,))
    passed = astar_err <= 1e-10 and resid <= 1e-9
    return CriterionResult(
        "C07", "reciprocal symbol: unit tail norm and convolution residual", passed,
        f"astar err {_fmt(astar_err)}, conv residual {_fmt(resid)}, grid {rep.grid}",
        {"astar_err": astar_err, "conv_residual": resid, "grid": rep.grid})


def c08_sigma_scaling(seed: int, quick: bool) -> CriterionResult:
    radii = (16, 96) if quick else (32, 64, 128, 256)
    sig_vanishing, sig_stable = {}, {}
    for coeffs, sig in (({0: 1.0, 1: -1.0}, sig_vanishing), ({0: 2.0, 1: 1.0}, sig_stable)):
        ladder = symbols.toeplitz_stability_criterion(symbols.SymbolCoeffs(1, coeffs), 2.0,
                                                      radii=radii)
        sig.update(zip(radii, (rep.lower for rep in ladder.brackets)))
    decayed = sig_vanishing[radii[-1]] < sig_vanishing[radii[0]] / 4.0
    floor = min(sig_stable.values())
    passed = decayed and floor >= 0.9
    return CriterionResult(
        "C08", "sigma_min scaling separates vanishing and bounded symbols", passed,
        f"vanishing: {_fmt(sig_vanishing[radii[0]])} -> {_fmt(sig_vanishing[radii[-1]])} "
        f"(need < /4); stable floor {_fmt(floor)} (need >= 0.9)",
        {"sigma_vanishing": sig_vanishing, "sigma_stable": sig_stable})


def c09_cross_consistency(seed: int, quick: bool) -> CriterionResult:
    r = 32 if quick else 64
    trials = 20 if quick else 60
    win = Window(1, r)
    trivial = WeightSequence.trivial(win)
    pairs = [(1.0, trivial), (2.0, trivial), (2.0, WeightSequence.power(win, 1.0)), (4.0, trivial)]
    stable_mat = generate("toeplitz_from_coeffs", win, coeffs={0: 2.0, 1: 1.0})
    degrading_mat = generate("toeplitz_from_coeffs", win, coeffs={0: 1.0, 1: -1.0})
    res_s = stability.cross_stability_verdicts(stable_mat, pairs, trials=trials, seed=seed)
    res_d = stability.cross_stability_verdicts(degrading_mat, pairs, trials=trials, seed=seed)
    verdicts_s = [rep.verdict for rep in res_s.reports]
    verdicts_d = [rep.verdict for rep in res_d.reports]
    passed = (res_s.consistent and res_d.consistent
              and set(verdicts_s) == {"stable"} and set(verdicts_d) == {"degrading"})
    return CriterionResult(
        "C09", "verdict agreement across (q, w) pairs for both families", passed,
        f"stable family {verdicts_s}; degrading family {verdicts_d}",
        {"stable_verdicts": verdicts_s, "degrading_verdicts": verdicts_d})


def c10_muckenhoupt(seed: int, quick: bool) -> CriterionResult:
    trials = 60 if quick else 500
    win = Window(1, 8)
    checks = {}
    checks["trivial_bound_exact"] = muckenhoupt.aq_bound(
        WeightSequence.trivial(win), 2.0, 4).bound == 1.0
    vals = np.ones(win.size)
    vals[win.flat(0)] = 4.0
    spike = WeightSequence.table(win, vals)
    spike_rep = muckenhoupt.aq_bound(spike, 2.0, 4)
    checks["spike_bound"] = abs(spike_rep.bound - 1.5625) <= 1e-12
    max_err = 0.0
    for d in (1, 2):
        wind = Window(d, 6)
        mc = muckenhoupt.maximal(LatticeSequence.delta(wind))
        sup = np.abs(wind.indices).max(axis=1)
        expected = 1.0 / (2.0 * sup + 1.0) ** d
        max_err = max(max_err, float(np.abs(np.real(mc.data) - expected).max()))
    checks["maximal_delta_exact"] = max_err == 0.0
    rng = np.random.default_rng([seed, 110])
    worst = math.inf
    per = max(1, -(-trials // 3))  # ceil: at least `trials` draws total
    for w, q in ((WeightSequence.trivial(win), 2.0), (spike, 2.0),
                 (WeightSequence.power(win, 0.5), 2.0)):
        rep = muckenhoupt.aq_characterization_check(w, q, per, seed=int(rng.integers(1 << 30)))
        worst = min(worst, rep.worst_margin)
    checks["characterization_margin"] = worst >= 0.0
    passed = all(checks.values())
    return CriterionResult(
        "C10", "A_q scan values, exact maximal function, cube characterization", passed,
        f"spike bound {_fmt(spike_rep.bound)} at N={spike_rep.argmax_n}; "
        f"worst characterization margin {_fmt(worst)}",
        {**checks, "spike_bound_value": spike_rep.bound, "worst_margin": worst})


def c11_theta_and_square_growth(seed: int, quick: bool) -> CriterionResult:
    n_draws = 10 if quick else 50
    u = WeightMatrix.polynomial(2.0, 1)
    v = WeightMatrix.constant(4.0, 1)
    fit = weights.theta_fit(u, v, 2.0, 1, t_grid=np.geomspace(1.0, 1e6, 61))
    theta_ok = 0.3 <= fit.theta <= 0.5
    rng = np.random.default_rng([seed, 111])
    worst = math.inf
    min_t = math.inf
    for _ in range(n_draws):
        r = int(rng.integers(4, 13))
        win = Window(1, r)
        if rng.integers(0, 2) == 0:
            a = generate("banded_random", win, seed=int(rng.integers(1 << 30)),
                         bandwidth=int(rng.integers(1, r)))
        else:
            a = generate("polynomial_decay_random", win, seed=int(rng.integers(1 << 30)),
                         alpha=2.5)
        rep = norms.square_growth_check(a, 2.0, u, fit)
        worst = min(worst, rep.margin)
        min_t = min(min_t, rep.norm_pu / rep.norm_l2)  # a zero norm_l2 is refused
    passed = theta_ok and fit.satisfied and worst >= 0.0
    return CriterionResult(
        "C11", "theta certificate and the squared-norm growth bound", passed,
        f"theta {_fmt(fit.theta)} in [0.3,0.5]; D {_fmt(fit.D)}; "
        f"worst square-growth margin {_fmt(worst)} (min t {_fmt(min_t)})",
        {"theta": fit.theta, "D": fit.D, "worst_margin": worst, "min_t": min_t,
         "certificate": fit.satisfied})


def c12_brandenburg(seed: int, quick: bool) -> CriterionResult:
    win = Window(1, 128)
    s = generate("shift", win)
    rep = norms.brandenburg_radii(s, 1.0, None, n_max=16, seed=seed)
    expected = np.array([(2.0 * n + 1.0) ** (1.0 / n) for n in range(1, 17)])
    roots_exact = bool(np.all(rep.roots == expected))
    passed = roots_exact and rep.gap < 0.25
    return CriterionResult(
        "C12", "shift root sequence exact and close to the l2 radius estimate", passed,
        f"roots exact: {roots_exact}; root[16] {_fmt(rep.roots[-1])}, "
        f"estimate {_fmt(rep.radius_estimate)}, gap {_fmt(rep.gap)}",
        {"roots_exact": roots_exact, "gap": rep.gap,
         "radius_estimate": rep.radius_estimate})


def c13_commutator_margins(seed: int, quick: bool) -> CriterionResult:
    n_draws = 12 if quick else 50
    rng = np.random.default_rng([seed, 113])
    win = Window(1, 128)
    ws = (WeightSequence.trivial(win), WeightSequence.power(win, 0.5))
    worst = math.inf
    cases = {"near": 0, "far": 0}
    for k in range(n_draws):
        a = generate("polynomial_decay_random", win, seed=int(rng.integers(1 << 30)), alpha=3.0)
        n_scale = int(rng.choice([8, 16]))
        kmax = win.radius // n_scale
        n = n_scale * int(rng.integers(-kmax, kmax + 1))
        n_prime = n_scale * int(rng.integers(-kmax, kmax + 1))
        w = ws[k % 2]
        data = rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size)
        c = LatticeSequence(win, data, copy=False)
        rep = stability.commutator_diagnostic(a, n_scale, n, n_prime, 2.0, w, c)
        cases[rep.case] += 1
        worst = min(worst, rep.margin)
    return CriterionResult(
        "C13", "partition commutator margins (near and far cases)", worst >= 0.0,
        f"worst margin {_fmt(worst)} over {n_draws} draws "
        f"({cases['near']} near, {cases['far']} far)",
        {"worst_margin": worst, "cases": cases})


def c14_determinism(seed: int, quick: bool) -> CriterionResult:
    with tempfile.TemporaryDirectory() as tmp:
        out_a = Path(tmp) / "a"
        out_b = Path(tmp) / "b"
        run_all(seed=seed, quick=True, out_dir=out_a, skip=("C14",))
        run_all(seed=seed, quick=True, out_dir=out_b, skip=("C14",))
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        identical = names_a == names_b and all(
            filecmp.cmp(out_a / n, out_b / n, shallow=False) for n in names_a)
    return CriterionResult(
        "C14", "repeated quick suite runs produce byte-identical artifacts", identical,
        f"{len(names_a)} artifacts compared byte-for-byte",
        {"artifacts": names_a, "identical": identical})


CRITERIA = [
    ("C01", c01_product_inequalities),
    ("C02", c02_norm_axioms),
    ("C03", c03_identity_norm),
    ("C04", c04_boundedness),
    ("C05", c05_inversion_oracle),
    ("C06", c06_inverse_closedness),
    ("C07", c07_reciprocal),
    ("C08", c08_sigma_scaling),
    ("C09", c09_cross_consistency),
    ("C10", c10_muckenhoupt),
    ("C11", c11_theta_and_square_growth),
    ("C12", c12_brandenburg),
    ("C13", c13_commutator_margins),
    ("C14", c14_determinism),
]


# wall-clock limits in seconds on the runner's one clock, which tests replace
_LIMITS = {"C01": 120.0, "C04": 60.0, "C05": 10.0, "C08": 120.0}
_clock = time.perf_counter


def _run(cid: str, fn, seed: int, quick: bool) -> CriterionResult:
    """fn's result, timed, with its wall-clock limit ANDed into passed; its
    weight constants are shared, C14's nested runs included."""
    t0 = _clock()
    with sharing("constants"):
        result = fn(seed, quick)
    result.elapsed = _clock() - t0
    result.passed = result.passed and result.elapsed < _LIMITS.get(cid, math.inf)
    return result


def run_criterion(cid: str, seed: int = 42, quick: bool = False) -> CriterionResult:
    for key, fn in CRITERIA:
        if key == cid:
            return _run(cid, fn, seed, quick)
    raise KeyError(f"unknown criterion {cid!r}")


def run_all(seed: int = 42, quick: bool = False, out_dir=None, skip=()):
    """Run the battery, optionally writing deterministic artifacts to out_dir."""
    results = [_run(cid, fn, seed, quick) for cid, fn in CRITERIA if cid not in skip]
    if out_dir is not None:
        from .cli import write_json_artifact

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        config = {"command": "suite", "quick": quick, "skip": sorted(skip)}
        payload = {
            "criteria": [
                {"cid": r.cid, "title": r.title, "passed": r.passed,
                 "summary": r.summary, "details": r.details}
                for r in results
            ],
        }
        write_json_artifact(out / "suite_report.json", payload, config, seed)
        lines = ["cid,passed,title"] + [f"{r.cid},{int(r.passed)},{r.title}" for r in results]
        (out / "suite_table.csv").write_text("\n".join(lines) + "\n")
    return results

