"""Batch command-line surface.

Every verb reads/writes the documented JSON/CSV formats, stamps each artifact
with a schema version, the seed, and a hash of the invoking configuration,
and does no arithmetic of its own beyond formatting.  Exit codes: 0 success,
1 validation failure (click's usage errors included), 2 numerical failure.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import inversion, muckenhoupt, norms, stability, symbols, weights
from .lattice import (Window, generate, json_number, json_object, load_matrix, load_sequence,
                      matrix_to_dict, profile_to_csv, read_rows, sequence_to_dict)
from .muckenhoupt import WeightSequence
from .symbols import parse_coeffs, symbol_from_dict
from .weights import WeightMatrix

SCHEMA_VERSION = 1


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _strict_json(obj):
    """obj in JSON's own types: +inf, -inf and nan as "inf", "-inf" and "nan",
    numpy scalars and arrays as Python values, tuples as lists, keys as strings."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(obj)
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return _strict_json(obj.tolist())
    return obj


def write_json_artifact(path, payload: dict, config: dict, seed) -> None:
    """Write strict JSON (no NaN or Infinity literals) with the artifact stamp."""
    doc = {"schema_version": SCHEMA_VERSION, "config_hash": config_hash(config),
           "seed": seed, **payload}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_strict_json(doc), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def write_csv_artifact(path, header: str, rows, config: dict, seed) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION} config_hash={config_hash(config)} seed={seed}",
             header]
    lines.extend(rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


# each weight kind's forms and the parameters of each, in constructor order; a
# table sequence reads its d, radius and values rows from its file
_MATRIX_FORMS = {"trivial": (), "polynomial": ("alpha",), "constant": ("c",),
                 "subexponential": ("delta", "tau")}
_SEQUENCE_FORMS = {"trivial": (), "power": ("alpha",), "table": ()}


def _weight_spec(spec: str, forms: dict, what: str) -> tuple[str, list, dict]:
    """The form, parameters and JSON object that a weight spec stands for.

    A JSON path stands for the file's object, an inline 'form:a,b' for the
    object {"form": form, <first parameter>: a, <second>: b}, so both
    syntaxes are checked and read alike.  An unknown form raises ValueError.
    """
    spec = spec.strip()
    if spec.endswith(".json"):
        with open(spec) as fh:
            payload = json_object(json.load(fh), f"a {what} file")
    else:
        form, _, args = spec.partition(":")
        names = forms.get(form, ())
        values = [float(x) for x in args.split(",")] if names else []
        if len(values) != len(names):
            raise ValueError(f"{what} form {form!r} needs {', '.join(names)}, got {args!r}")
        payload = {"form": form, **dict(zip(names, values))}
    form = payload["form"]
    if not isinstance(form, str) or form not in forms:
        raise ValueError(f"unknown {what} form {form!r} in {spec!r}")
    return form, [json_number(payload, name) for name in forms[form]], payload


def parse_weight_matrix(spec: str, d: int) -> WeightMatrix:
    """'trivial' | 'polynomial:A' | 'constant:C' | 'subexponential:D,T' | JSON path."""
    form, params, _ = _weight_spec(spec, _MATRIX_FORMS, "weight")
    return getattr(WeightMatrix, form)(*params, d)


def parse_weight_sequence(spec: str, window: Window) -> WeightSequence:
    """'trivial' | 'power:A' | JSON path ({"form": ...} or table)."""
    form, params, payload = _weight_spec(spec, _SEQUENCE_FORMS, "weight-sequence")
    if form != "table":
        return getattr(WeightSequence, form)(window, *params)
    win = Window(json_number(payload, "d", int), json_number(payload, "radius", int))
    pos, rows = read_rows(win, payload["values"], 1, 1)
    vals = np.ones(win.size)
    vals[pos] = rows[:, 0]
    return WeightSequence.table(win, vals)


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# --p of `norm` and `radius`: a norm exponent in [1, infinity], where 0 reads as infinity
_exponent_option = click.option("--p", default=1.0, show_default=True,
                                callback=lambda _ctx, _param, p: math.inf if p == 0 else p)


def _coeffs_arg(spec: str, d: int):
    """Inline '2@0,1@1' syntax or a SymbolCoeffs JSON path."""
    if spec.strip().endswith(".json"):
        with open(spec.strip()) as fh:
            return symbol_from_dict(json.load(fh))
    return parse_coeffs(spec, d)


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _exit_codes(fn):
    """Run a verb, mapping its failures to exit 1 or 2 with a one-line message."""

    @functools.wraps(fn)
    def verb(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(2)
        except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(1)
        except _Fail as exc:
            click.echo(str(exc), err=True)
            sys.exit(exc.code)

    return verb


class _Cli(click.Group):
    """The root group: click's usage errors exit 1, as validation failures.

    Every parse of an argument list, the root's and each verb's, runs inside
    one of these two calls, and click keeps its own message.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Cli)
def main():
    """Numerical laboratory for matrix algebras with off-diagonal decay."""


@main.command("gen")
@click.option("--kind", required=True,
              type=click.Choice(["identity", "shift", "banded_random",
                                 "polynomial_decay_random", "toeplitz_from_coeffs"]))
@click.option("--d", default=1, show_default=True)
@click.option("--radius", required=True, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--bandwidth", default=None, type=int)
@click.option("--alpha", default=None, type=float)
@click.option("--amplitude", default=1.0, show_default=True)
@click.option("--offset", default=None, type=int)
@click.option("--coeffs", default=None, help="e.g. '2@0,1@1'")
@click.option("--out", default="out", show_default=True)
@_exit_codes
def gen_cmd(kind, d, radius, seed, bandwidth, alpha, amplitude, offset, coeffs, out):
    """Generate a matrix and write it as matrix.json."""
    window = Window(d, radius)
    params = {}
    if kind == "banded_random":
        if bandwidth is None:
            raise ValueError("banded_random requires --bandwidth")
        params = {"bandwidth": bandwidth, "amplitude": amplitude}
    elif kind == "polynomial_decay_random":
        if alpha is None:
            raise ValueError("polynomial_decay_random requires --alpha")
        params = {"alpha": alpha, "amplitude": amplitude}
    elif kind == "shift" and offset is not None:
        params = {"offset": offset}
    elif kind == "toeplitz_from_coeffs":
        if coeffs is None:
            raise ValueError("toeplitz_from_coeffs requires --coeffs")
        params = {"coeffs": _coeffs_arg(coeffs, d).coeffs}
    if kind in ("banded_random", "polynomial_decay_random") and seed is None:
        raise ValueError("randomized generation requires --seed")
    a = generate(kind, window, seed=seed, **params)
    config = {"command": "gen", "kind": kind, "d": d, "radius": radius,
              "params": {k: str(v) for k, v in params.items()},
              "amplitude": amplitude}
    path = _out_dir(out) / "matrix.json"
    write_json_artifact(path, matrix_to_dict(a), config, seed)
    click.echo(f"wrote {path} ({a.nnz} entries)")


@main.command("norm")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@_exponent_option
@click.option("--weight", default="trivial", show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def norm_cmd(matrix_path, p, weight, out):
    """Norm report (ring / diagonal / row-column / sup families)."""
    a = load_matrix(matrix_path)
    u = parse_weight_matrix(weight, a.window.d)
    rep = norms.norm_report(a, p, u)
    config = {"command": "norm", "matrix": str(matrix_path), "p": str(p),
              "weight": weight}
    write_json_artifact(_out_dir(out) / "norm_report.json", {
        "beurling": rep.beurling, "sjostrand": rep.sjostrand,
        "schur": rep.schur, "jaffard": rep.jaffard,
        "p": str(p), "weight_id": rep.weight_id,
    }, config, None)
    click.echo(f"beurling={rep.beurling!r} sjostrand={rep.sjostrand!r} "
               f"schur={rep.schur!r} jaffard={rep.jaffard!r}")


@main.group("weights")
def weights_group():
    """Weight-sequence machinery (A_q scans, maximal function)."""


@weights_group.command("aq")
@click.option("--wseq", required=True, help="'trivial' | 'power:A' | table JSON path")
@click.option("--d", default=1, show_default=True)
@click.option("--radius", default=16, show_default=True)
@click.option("--q", required=True, type=float)
@click.option("--ncap", default=8, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def weights_aq_cmd(wseq, d, radius, q, ncap, out):
    """Scan the discrete A_q bound over cubes inside the window."""
    w = parse_weight_sequence(wseq, Window(d, radius))
    rep = muckenhoupt.aq_bound(w, q, ncap)
    config = {"command": "weights aq", "wseq": wseq, "d": d, "radius": radius,
              "q": q, "ncap": ncap}
    write_json_artifact(_out_dir(out) / "aq_report.json", {
        "q": q, "bound": rep.bound, "argmax_anchor": rep.argmax_anchor,
        "argmax_n": rep.argmax_n, "n_cap": rep.n_cap, "weight_id": w.descriptor,
    }, config, None)
    click.echo(f"A_q bound {rep.bound!r} at anchor {rep.argmax_anchor}, N={rep.argmax_n}")


@weights_group.command("maximal")
@click.option("--seq", "seq_path", required=True, type=click.Path(exists=True))
@click.option("--out", default="out", show_default=True)
@_exit_codes
def weights_maximal_cmd(seq_path, out):
    """Discrete maximal function of a sequence."""
    c = load_sequence(seq_path)
    mc = muckenhoupt.maximal(c)
    config = {"command": "weights maximal", "seq": str(seq_path)}
    write_json_artifact(_out_dir(out) / "maximal.json",
                        {"sequence": sequence_to_dict(mc)}, config, None)
    click.echo(f"max of Mc: {float(np.real(mc.data).max())!r}")


def _parse_pairs(spec: str):
    pairs = []
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        q_s, _, w_s = item.partition(":")
        pairs.append((float(q_s), w_s or "trivial"))
    if not pairs:
        raise ValueError("no (q, weight) pairs given")
    return pairs


@main.group("stability", invoke_without_command=True)
@click.option("--matrix", "matrix_path", type=click.Path(exists=True))
@click.option("--q", default=2.0, show_default=True)
@click.option("--wseq", default="trivial", show_default=True)
@click.option("--band", default=None, type=int)
@click.option("--trials", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.pass_context
@_exit_codes
def stability_group(ctx, matrix_path, q, wseq, band, trials, seed, out):
    """Stability bracket for one (q, w); subcommand `cross` for a table."""
    if ctx.invoked_subcommand is not None:
        return
    if matrix_path is None:
        raise ValueError("--matrix is required")
    a = load_matrix(matrix_path)
    w = parse_weight_sequence(wseq, a.window)
    rep = stability.stability_bracket(a, q, w, band=band, trials=trials, seed=seed)
    config = {"command": "stability", "matrix": str(matrix_path), "q": q,
              "wseq": wseq, "band": band, "trials": trials}
    write_json_artifact(_out_dir(out) / "stability_report.json", {
        "q": rep.q, "weight_id": rep.weight_id, "lower": rep.lower,
        "upper": rep.upper, "verdict": rep.verdict, "method": rep.method,
        "probe_band": rep.probe_band,
    }, config, seed)
    write_csv_artifact(_out_dir(out) / "stability_report.csv",
                       "q,weight,lower,upper,verdict,method",
                       [f"{rep.q!r},{rep.weight_id},{rep.lower!r},{rep.upper!r},"
                        f"{rep.verdict},{rep.method}"], config, seed)
    click.echo(f"[{rep.lower!r}, {rep.upper!r}] verdict={rep.verdict} ({rep.method})")


@stability_group.command("cross")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--pairs", default="1:trivial;2:trivial;2:power:1;4:trivial",
              show_default=True)
@click.option("--trials", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def stability_cross_cmd(matrix_path, pairs, trials, seed, out):
    """Stability verdicts across several (q, w) pairs plus a consistency flag."""
    a = load_matrix(matrix_path)
    parsed = _parse_pairs(pairs)
    pair_args = [(q, parse_weight_sequence(w_s, a.window)) for q, w_s in parsed]
    res = stability.cross_stability_verdicts(a, pair_args, trials=trials, seed=seed)
    config = {"command": "stability cross", "matrix": str(matrix_path),
              "pairs": pairs, "trials": trials}
    rows = [f"{r.q!r},{r.weight_id},{r.lower!r},{r.upper!r},{r.verdict},{r.method}"
            for r in res.reports]
    write_csv_artifact(_out_dir(out) / "stability_cross.csv",
                       "q,weight,lower,upper,verdict,method", rows, config, seed)
    write_json_artifact(_out_dir(out) / "stability_cross.json", {
        "consistent": res.consistent,
        "reports": [{"q": r.q, "weight_id": r.weight_id, "lower": r.lower,
                     "upper": r.upper, "verdict": r.verdict, "method": r.method}
                    for r in res.reports],
    }, config, seed)
    click.echo(f"consistent={res.consistent}: "
               + ", ".join(f"({r.q:g},{r.weight_id})={r.verdict}" for r in res.reports))


def _write_inversion(out, a_inv, rep, config, seed, prefix):
    out = _out_dir(out)
    write_json_artifact(out / f"{prefix}_report.json", {
        "c1": rep.c1, "c2": rep.c2, "r0": rep.r0, "terms_used": rep.terms_used,
        "residual": rep.residual, "two_sided_residual": rep.two_sided_residual,
        "converged": rep.converged, "inverse_ring_norm": rep.inverse_ring_norm,
    }, config, seed)
    write_json_artifact(out / f"{prefix}_matrix.json", matrix_to_dict(a_inv),
                        config, seed)
    text = profile_to_csv(rep.inverse_profile)
    header, _, body = text.partition("\n")
    write_csv_artifact(out / f"{prefix}_profile.csv", header,
                       body.rstrip("\n").split("\n"), config, seed)


_KMAX_HELP = "squaring doubles the series terms held while fewer than this are held"


@main.command("invert")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-10, show_default=True)
@click.option("--kmax", default=500, show_default=True, help=_KMAX_HELP)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def invert_cmd(matrix_path, tol, kmax, out):
    """Preconditioned Neumann inverse with decay-profile witness."""
    a = load_matrix(matrix_path)
    a_inv, rep = inversion.wiener_invert(a, tol=tol, k_max=kmax)
    config = {"command": "invert", "matrix": str(matrix_path), "tol": tol,
              "kmax": kmax}
    _write_inversion(out, a_inv, rep, config, None, "inverse")
    click.echo(f"residual={rep.residual!r} terms={rep.terms_used} "
               f"ring_norm={rep.inverse_ring_norm!r}")
    if not rep.converged:
        raise _Fail(2, f"series not converged at {rep.terms_used} terms "
                       f"(residual {rep.residual!r})")


@main.command("leftinv")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-10, show_default=True)
@click.option("--kmax", default=4000, show_default=True, help=_KMAX_HELP)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def leftinv_cmd(matrix_path, tol, kmax, out):
    """Left inverse of a square window operand, which is its inverse A^{-1}."""
    a = load_matrix(matrix_path)
    b, rep = inversion.left_inverse(a, tol=tol, k_max=kmax)
    config = {"command": "leftinv", "matrix": str(matrix_path), "tol": tol,
              "kmax": kmax}
    _write_inversion(out, b, rep, config, None, "left_inverse")
    click.echo(f"residual={rep.residual!r} terms={rep.terms_used}")
    if not rep.converged:
        raise _Fail(2, f"series not converged at {rep.terms_used} terms")


@main.command("thetafit")
@click.option("--u", "u_spec", required=True)
@click.option("--v", "v_spec", default=None, help="default: built-in companion")
@click.option("--p", default=2.0, show_default=True)
@click.option("--d", default=1, show_default=True)
@click.option("--nmax", default=2048, show_default=True)
@click.option("--tmax", default=1e6, show_default=True)
@click.option("--tpoints", default=61, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def thetafit_cmd(u_spec, v_spec, p, d, nmax, tmax, tpoints, out):
    """Fit the (D, theta) growth certificate from the weight pair."""
    u = parse_weight_matrix(u_spec, d)
    v = (weights.default_companion(u, p) if v_spec is None
         else parse_weight_matrix(v_spec, d))
    t_grid = np.geomspace(1.0, tmax, tpoints)
    fit = weights.theta_fit(u, v, p, d, n_max=nmax, t_grid=t_grid)
    config = {"command": "thetafit", "u": u_spec, "v": v_spec, "p": p, "d": d,
              "nmax": nmax, "tmax": tmax, "tpoints": tpoints}
    write_json_artifact(_out_dir(out) / "thetafit.json", {
        "D": fit.D, "theta": fit.theta,
        "satisfied": fit.satisfied, "diverged": fit.diverged,
        "t_grid": fit.t_grid, "min_values": fit.min_values, "margins": fit.margins,
        "n_grid": fit.n_grid, "a_values": fit.a_values, "b_values": fit.b_values,
        "b_tail_bound": fit.b_tail_bound,
    }, config, None)
    click.echo(f"theta={fit.theta!r} D={fit.D!r} satisfied={fit.satisfied}")


@main.command("radius")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@_exponent_option
@click.option("--weight", default="trivial", show_default=True)
@click.option("--nmax", default=16, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def radius_cmd(matrix_path, p, weight, nmax, seed, out):
    """Root sequence ||A^n||^{1/n} next to the l2 radius estimate."""
    a = load_matrix(matrix_path)
    u = parse_weight_matrix(weight, a.window.d)
    rep = norms.brandenburg_radii(a, p, u, n_max=nmax, seed=seed)
    config = {"command": "radius", "matrix": str(matrix_path), "p": p,
              "weight": weight, "nmax": nmax}
    write_csv_artifact(_out_dir(out) / "radius_roots.csv", "n,root",
                       [f"{n + 1},{float(r)!r}" for n, r in enumerate(rep.roots)],
                       config, seed)
    write_json_artifact(_out_dir(out) / "radius_report.json", {
        "roots": rep.roots, "opnorm_l2": rep.opnorm_l2,
        "radius_estimate": rep.radius_estimate, "gap": rep.gap,
    }, config, seed)
    click.echo(f"root[{nmax}]={float(rep.roots[-1])!r} "
               f"estimate={rep.radius_estimate!r} gap={rep.gap!r}")


@main.group("toeplitz")
def toeplitz_group():
    """Symbol-side operations for Toeplitz matrices."""


@toeplitz_group.command("minmod")
@click.option("--coeffs", required=True, help="e.g. '2@0,1@1'")
@click.option("--d", default=1, show_default=True)
@click.option("--grid", default=None, type=int)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def toeplitz_minmod_cmd(coeffs, d, grid, out):
    """Certified minimum modulus of the symbol on the torus."""
    a = _coeffs_arg(coeffs, d)
    rep = symbols.symbol_min_modulus(a, grid)
    config = {"command": "toeplitz minmod", "coeffs": coeffs, "d": d, "grid": grid}
    write_json_artifact(_out_dir(out) / "minmod.json", {
        "min_modulus": rep.min_modulus, "argmin_xi": rep.argmin_xi,
        "slack": rep.slack, "certified": rep.certified, "grid": rep.grid,
    }, config, None)
    click.echo(f"min|a_hat|={rep.min_modulus!r} at xi={rep.argmin_xi} "
               f"certified={rep.certified}")


@toeplitz_group.command("recip")
@click.option("--coeffs", required=True)
@click.option("--tol", default=1e-10, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def toeplitz_recip_cmd(coeffs, tol, out):
    """Reciprocal symbol coefficients via adaptive grid doubling."""
    a = _coeffs_arg(coeffs, 1)
    b, rep = symbols.reciprocal_coeffs(a, tol=tol)
    config = {"command": "toeplitz recip", "coeffs": coeffs, "tol": tol}
    rows = [f"{n[0]},{v.real!r},{v.imag!r}"
            for n, v in sorted(b.coeffs.items())]
    write_csv_artifact(_out_dir(out) / "reciprocal_coeffs.csv", "n,re,im",
                       rows, config, None)
    write_json_artifact(_out_dir(out) / "reciprocal_report.json", {
        "astar_norm": rep.astar_norm, "grid": rep.grid,
        "outer_quarter_mass": rep.outer_quarter_mass,
        "min_modulus": rep.min_modulus,
    }, config, None)
    click.echo(f"astar_norm={rep.astar_norm!r} support={len(b.coeffs)} grid={rep.grid}")


@toeplitz_group.command("stability")
@click.option("--coeffs", required=True)
@click.option("--d", default=1, show_default=True)
@click.option("--q", default=2.0, show_default=True)
@click.option("--wseq", default="trivial", show_default=True)
@click.option("--radii", default="16,32,64,128", show_default=True)
@click.option("--trials", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def toeplitz_stability_cmd(coeffs, d, q, wseq, radii, trials, seed, out):
    """Symbol-side stability verdict with bracket-scaling corroboration."""
    a = _coeffs_arg(coeffs, d)
    rad = tuple(int(x) for x in radii.split(","))
    top = Window(d, max(rad))
    # one weight on the largest window, restricted per radius; a table that
    # does not cover the ladder is refused before any bracket runs
    ladder_w = parse_weight_sequence(wseq, top).restrict(top)
    rep = symbols.toeplitz_stability_criterion(a, q, ladder_w, rad, trials=trials, seed=seed)
    config = {"command": "toeplitz stability", "coeffs": coeffs, "d": d,
              "q": q, "wseq": wseq, "radii": radii, "trials": trials}
    rows = [f"{r.q!r},{r.weight_id},{rad[k]},{r.lower!r},{r.upper!r},{r.verdict}"
            for k, r in enumerate(rep.brackets)]
    write_csv_artifact(_out_dir(out) / "toeplitz_stability.csv",
                       "q,weight,radius,lower,upper,verdict", rows, config, seed)
    write_json_artifact(_out_dir(out) / "toeplitz_stability.json", {
        "verdict": rep.verdict,
        "min_modulus": rep.min_modulus.min_modulus,
        "certified": rep.min_modulus.certified,
        "brackets": [{"radius": rad[k], "lower": r.lower, "upper": r.upper,
                      "verdict": r.verdict} for k, r in enumerate(rep.brackets)],
    }, config, seed)
    click.echo(f"verdict={rep.verdict} min|a_hat|={rep.min_modulus.min_modulus!r}")


@main.command("suite")
@click.option("--quick", is_flag=True)
@click.option("--seed", default=42, show_default=True)
@click.option("--out", default="out", show_default=True)
@_exit_codes
def suite_cmd(quick, seed, out):
    """Run the acceptance battery; exit 2 if any criterion fails."""
    from .suite import run_all

    results = run_all(seed=seed, quick=quick, out_dir=out)
    width = max(len(r.title) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.cid} {r.title:<{width}}  {r.summary} "
                   f"({r.elapsed:.2f}s)")
    failed = [r.cid for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        raise _Fail(2, f"failed criteria: {', '.join(failed)}")


if __name__ == "__main__":
    main()
