"""Write a byte-comparable snapshot of offdiag's artifacts into OUT.

    PYTHONPATH=src python tools/snapshot_artifacts.py OUT

The snapshot holds the suite artifacts for seeds 1, 7 and 42 (full and
``--quick``) and a pinned list of CLI calls, each with its artifacts, its
stdout, its stderr (the package path written as ``SRC``) and its exit code,
run on inputs the script writes itself, so a refusal that ends in a traceback
differs from a clean one.  Every
call runs in OUT with relative paths, so the config hashes stamped into the
artifacts do not depend on where OUT is.  A refactor that must not change
any output is checked by snapshotting the parent and the change with the
same command and comparing the two trees:

    diff -r OUT_PARENT OUT_CHANGE

The suite's stdout is kept with its per-criterion timings blanked, since
they differ from run to run.  The script uses whichever ``offdiag`` the
interpreter imports, so the same file snapshots any checkout.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import offdiag

# inputs written before any call; the matrices come from the `gen` calls below
INPUTS = {
    "w_polynomial.json": {"form": "polynomial", "alpha": 2},
    "w_constant.json": {"form": "constant", "c": 4.0},
    "w_subexponential.json": {"form": "subexponential", "delta": 0.5, "tau": 0.5},
    "w_trivial.json": {"form": "trivial"},
    "w_table.json": {"form": "table"},
    "w_alpha_inf.json": '{"form": "polynomial", "alpha": Infinity}',
    "ws_power.json": {"form": "power", "alpha": 0.5},
    "ws_trivial.json": {"form": "trivial"},
    "ws_table.json": {"form": "table", "d": 1, "radius": 16,
                      "values": [[k, 1.0 + abs(k) % 3] for k in range(-16, 17, 2)]},
    "ws_table2.json": {"form": "table", "d": 1, "radius": 16,
                       "values": [[k, 1.5 + (k % 4) / 4] for k in range(-16, 17, 3)]},
    "ws_unknown.json": {"form": "spline", "alpha": 1.0},
    "ws_alpha_nan.json": '{"form": "power", "alpha": NaN}',
    # w_k = 16^k, far outside every A_q: the q != 2 verdicts read inconclusive
    "ws_table_sixteen.json": {"form": "table", "d": 1, "radius": 16,
                              "values": [[k, 16.0**k] for k in range(-16, 17)]},
    "ws_table_huge.json": {"form": "table", "d": 1, "radius": 16,
                           "values": [[k, 1e305] for k in range(-16, 17)]},
    "ws_table_tiny.json": {"form": "table", "d": 1, "radius": 16,
                           "values": [[k, 1e-305] for k in range(-16, 17)]},
    # finite totals whose cube product (avg w)(avg w^-1) overflows
    "ws_table_extreme.json": {"form": "table", "d": 1, "radius": 16,
                              "values": [[0, 1e300], [1, 1e-300]]},
    "sym_nan.json": '{"d": 1, "coeffs": [[0, NaN, 0], [1, 1, 0]]}',
    "sym_d1.json": {"d": 1, "coeffs": [[0, 2.0, 0.0], [1, 1.0, 0.0]]},
    "sym_d2.json": {"d": 2, "coeffs": [[0, 0, 4.0, 0.0], [1, 0, 1.0, 0.0], [0, -1, 0.5, 0.5],
                                       [-1, 1, -0.25, 0.0]]},
    "seq_d1.json": {"d": 1, "radius": 8,
                    "entries": [[-8, 1.0, 0.0], [-1, 0.5, -0.5], [3, 2.0, 0.0], [8, 0.0, 1.0]]},
    "seq_d2.json": {"d": 2, "radius": 3,
                    "entries": [[-3, 1, 1.0, 0.0], [0, 0, -2.0, 0.5], [2, -2, 0.25, 0.0]]},
    "bad_point_float.json": '{"d": 1, "radius": 2, "entries": [[1e20, 0, 1.0, 0.0]]}',
    "bad_point_int.json": '{"d": 1, "radius": 2, "entries": [[100000000000000000000, 0, 1.0, 0.0]]}',
}

T = "calls/gen_toeplitz/matrix.json"  # real, d = 1, R = 16
C = "calls/gen_complex/matrix.json"  # complex Toeplitz, d = 1, R = 12
B = "calls/gen_banded_d2/matrix.json"  # complex, d = 2, R = 3
D2 = "calls/gen_toeplitz_d2/matrix.json"  # complex Toeplitz, d = 2, R = 3
F = "calls/gen_toeplitz_four/matrix.json"  # real, d = 1, R = 16, four nonzeros a row
V = "calls/gen_toeplitz_vanishing/matrix.json"  # I - S, real, d = 1, R = 16

# (name, arguments after `offdiag`); each call writes into calls/<name>
CALLS = [
    ("gen_toeplitz", ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "16",
                      "--coeffs", "2@0,1@1"]),
    ("gen_complex", ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "12",
                     "--coeffs", "3@0,1+1j@1,0.5j@-1"]),
    ("gen_banded_d2", ["gen", "--kind", "banded_random", "--d", "2", "--radius", "3",
                       "--bandwidth", "1", "--seed", "5"]),
    ("gen_toeplitz_d2", ["gen", "--kind", "toeplitz_from_coeffs", "--d", "2", "--radius", "3",
                         "--coeffs", "4@0,0;1@1,0;1j@0,1"]),
    ("gen_polydecay", ["gen", "--kind", "polynomial_decay_random", "--radius", "10",
                       "--alpha", "2.5", "--seed", "3"]),
    ("gen_shift_d2", ["gen", "--kind", "shift", "--d", "2", "--radius", "2", "--offset", "1"]),
    ("gen_toeplitz_four", ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "16",
                           "--coeffs", "3@0,1@1,0.5@-1,0.25@2"]),
    ("gen_toeplitz_vanishing", ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "16",
                                "--coeffs", "1@0,-1@1"]),
    ("norm_trivial", ["norm", "--matrix", T, "--p", "1", "--weight", "trivial"]),
    ("norm_polynomial", ["norm", "--matrix", T, "--p", "2", "--weight", "polynomial:2"]),
    ("norm_constant", ["norm", "--matrix", C, "--weight", "constant:4"]),
    ("norm_subexponential", ["norm", "--matrix", T, "--p", "inf",
                             "--weight", "subexponential:0.5,0.5"]),
    ("norm_polynomial_json", ["norm", "--matrix", T, "--p", "2",
                              "--weight", "inputs/w_polynomial.json"]),
    ("norm_constant_json", ["norm", "--matrix", C, "--weight", "inputs/w_constant.json"]),
    ("norm_subexponential_json", ["norm", "--matrix", T, "--p", "inf",
                                  "--weight", "inputs/w_subexponential.json"]),
    ("norm_trivial_json", ["norm", "--matrix", B, "--weight", "inputs/w_trivial.json"]),
    ("norm_d2_polynomial", ["norm", "--matrix", B, "--p", "3", "--weight", "polynomial:1.5"]),
    ("norm_table_json", ["norm", "--matrix", T, "--weight", "inputs/w_table.json"]),
    ("norm_table_json_inf", ["norm", "--matrix", T, "--p", "0",
                             "--weight", "inputs/w_table.json"]),
    ("radius_polynomial", ["radius", "--matrix", T, "--weight", "polynomial:1", "--nmax", "8"]),
    ("radius_constant_json", ["radius", "--matrix", C, "--p", "2", "--nmax", "6",
                              "--weight", "inputs/w_constant.json"]),
    # complex probes on a real operand whose rows sum three or more products
    ("radius_four", ["radius", "--matrix", F, "--nmax", "8"]),
    ("thetafit_polynomial", ["thetafit", "--u", "polynomial:2", "--nmax", "256",
                             "--tpoints", "21"]),
    ("thetafit_subexponential", ["thetafit", "--u", "subexponential:0.5,1", "--p", "1",
                                 "--nmax", "128", "--tpoints", "11"]),
    ("thetafit_json_pair", ["thetafit", "--u", "inputs/w_polynomial.json",
                            "--v", "inputs/w_constant.json", "--d", "2", "--nmax", "64",
                            "--tpoints", "11"]),
    ("thetafit_constant", ["thetafit", "--u", "constant:3", "--nmax", "64", "--tpoints", "11"]),
    # the first call whose series tail takes the incomplete gamma of a non-integer 1/delta
    ("thetafit_subexponential_p2", ["thetafit", "--u", "subexponential:0.3,1", "--p", "2"]),
    # x < a + 1 at the tail's start: Gamma(a) minus the series of gamma(a, x)
    ("thetafit_subexponential_series", ["thetafit", "--u", "subexponential:0.05,1",
                                        "--p", "2"]),
    # an integer 1/delta at p = 2, d = 2
    ("thetafit_subexponential_quarter_d2", ["thetafit", "--u", "subexponential:0.25,1",
                                            "--p", "2", "--d", "2"]),
    # Gamma(1000) overflows: the tail is inf and the fit reads diverged, exit 0
    ("thetafit_subexponential_overflow", ["thetafit", "--u", "subexponential:0.001,1",
                                          "--p", "2"]),
    ("thetafit_polynomial_zero", ["thetafit", "--u", "polynomial:0", "--nmax", "64",
                                  "--tpoints", "11"]),
    ("aq_power", ["weights", "aq", "--wseq", "power:0.5", "--radius", "16", "--q", "2",
                  "--ncap", "8"]),
    ("aq_trivial_d2", ["weights", "aq", "--wseq", "trivial", "--d", "2", "--radius", "4",
                       "--q", "3", "--ncap", "4"]),
    ("aq_power_json", ["weights", "aq", "--wseq", "inputs/ws_power.json", "--radius", "12",
                       "--q", "1", "--ncap", "6"]),
    ("aq_table_json", ["weights", "aq", "--wseq", "inputs/ws_table.json", "--radius", "16",
                       "--q", "2", "--ncap", "8"]),
    ("maximal_d1", ["weights", "maximal", "--seq", "inputs/seq_d1.json"]),
    ("maximal_d2", ["weights", "maximal", "--seq", "inputs/seq_d2.json"]),
    ("stability_trivial", ["stability", "--matrix", T, "--q", "2", "--wseq", "trivial"]),
    ("stability_power", ["stability", "--matrix", T, "--q", "4", "--wseq", "power:0.5",
                         "--trials", "20"]),
    ("stability_power_json", ["stability", "--matrix", T, "--q", "1", "--trials", "20",
                              "--wseq", "inputs/ws_power.json"]),
    ("stability_table_json", ["stability", "--matrix", T, "--q", "2",
                              "--wseq", "inputs/ws_table.json"]),
    ("stability_complex_power", ["stability", "--matrix", C, "--q", "2",
                                 "--wseq", "power:0.5"]),
    ("stability_four_q4", ["stability", "--matrix", F, "--q", "4", "--trials", "20"]),
    ("stability_four_q1", ["stability", "--matrix", F, "--q", "1", "--trials", "20"]),
    ("stability_four_power_q4", ["stability", "--matrix", F, "--q", "4", "--trials", "20",
                                 "--wseq", "power:0.5"]),
    ("stability_cross", ["stability", "cross", "--matrix", T, "--trials", "20", "--pairs",
                         "1:trivial;2:power:1;2:inputs/ws_table.json;4:inputs/ws_power.json"]),
    ("toeplitz_stability_power", ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                  "--wseq", "power:0.5", "--q", "4", "--radii", "8,16",
                                  "--trials", "20"]),
    ("toeplitz_stability_table", ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                  "--wseq", "inputs/ws_table.json", "--radii", "8,16"]),
    ("toeplitz_stability_trivial_json", ["toeplitz", "stability", "--coeffs", "1@0,-1@1",
                                         "--wseq", "inputs/ws_trivial.json", "--radii", "8,16"]),
    # ladders and cross tables whose brackets share sigma pairs within the call
    ("toeplitz_stability_doubling", ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                     "--radii", "8,16,32,64"]),
    ("toeplitz_stability_doubling_q4", ["toeplitz", "stability", "--coeffs", "1@0,-1@1",
                                        "--q", "4", "--radii", "8,16,32,64", "--trials", "20"]),
    ("toeplitz_stability_unsorted", ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                     "--wseq", "power:0.5", "--radii", "32,8,16,16"]),
    # two-diagonal windows of 256 interior columns or more: sigma pairs by Sturm counts
    ("toeplitz_stability_sturm", ["toeplitz", "stability", "--coeffs", "1@0,-1@1",
                                  "--radii", "128,256"]),
    ("toeplitz_stability_sturm_power_q4", ["toeplitz", "stability", "--coeffs", "2@0,1@1",
                                           "--wseq", "power:0.5", "--q", "4",
                                           "--radii", "160,320", "--trials", "20"]),
    ("toeplitz_stability_complex_d2", ["toeplitz", "stability", "--coeffs", "4@0,0;1@1,0;1j@0,1",
                                       "--d", "2", "--radii", "2,4,8", "--trials", "20"]),
    ("stability_cross_tables", ["stability", "cross", "--matrix", T, "--trials", "20", "--pairs",
                                "1:trivial;2:trivial;4:trivial;"
                                "2:inputs/ws_table.json;2:inputs/ws_table2.json"]),
    # the A_q scan doubles with the radius, so q = 4 transfers no verdict
    ("stability_sixteen_q4", ["stability", "--matrix", T, "--q", "4", "--trials", "20",
                              "--wseq", "inputs/ws_table_sixteen.json"]),
    ("stability_vanishing_sixteen_q4", ["stability", "--matrix", V, "--q", "4", "--trials", "20",
                                        "--wseq", "inputs/ws_table_sixteen.json"]),
    ("stability_cross_sixteen", ["stability", "cross", "--matrix", T, "--trials", "20", "--pairs",
                                 "2:inputs/ws_table_sixteen.json;4:inputs/ws_table_sixteen.json"]),
    ("toeplitz_minmod", ["toeplitz", "minmod", "--coeffs", "2@0,1@1"]),
    ("toeplitz_recip", ["toeplitz", "recip", "--coeffs", "2@0,1@1"]),
    ("toeplitz_minmod_d2_json", ["toeplitz", "minmod", "--d", "2",
                                 "--coeffs", "inputs/sym_d2.json"]),
    # a reciprocal with 1,536 coefficients
    ("toeplitz_recip_long", ["toeplitz", "recip", "--coeffs", "1@0,-0.9@1"]),
    ("invert_real", ["invert", "--matrix", T]),
    ("invert_complex", ["invert", "--matrix", C]),
    ("invert_d2", ["invert", "--matrix", D2]),
    # refused inputs: each exits 1
    ("refuse_aq_power_nan", ["weights", "aq", "--wseq", "power:nan", "--q", "2"]),
    ("refuse_aq_power_inf", ["weights", "aq", "--wseq", "power:inf", "--q", "2"]),
    ("refuse_aq_power_overflow", ["weights", "aq", "--wseq", "power:1e308", "--q", "2"]),
    ("refuse_aq_power_nan_json", ["weights", "aq", "--wseq", "inputs/ws_alpha_nan.json",
                                  "--q", "2"]),
    ("refuse_norm_polynomial_inf", ["norm", "--matrix", T, "--weight", "polynomial:inf"]),
    ("refuse_norm_constant_inf", ["norm", "--matrix", T, "--weight", "constant:inf"]),
    ("refuse_norm_alpha_inf_json", ["norm", "--matrix", T,
                                    "--weight", "inputs/w_alpha_inf.json"]),
    ("refuse_norm_unknown", ["norm", "--matrix", T, "--weight", "spline:1"]),
    ("refuse_aq_unknown_json", ["weights", "aq", "--wseq", "inputs/ws_unknown.json",
                                "--q", "2"]),
    ("refuse_invert_point_float", ["invert", "--matrix", "inputs/bad_point_float.json"]),
    ("refuse_invert_point_int", ["invert", "--matrix", "inputs/bad_point_int.json"]),
    ("refuse_norm_weighted_overflow", ["norm", "--matrix", T, "--weight", "constant:1e308"]),
    ("refuse_thetafit_a_n_overflow", ["thetafit", "--u", "polynomial:2",
                                      "--v", "polynomial:1000", "--nmax", "64"]),
    ("refuse_norm_power_sum_overflow", ["norm", "--matrix", T, "--p", "2",
                                        "--weight", "constant:1e200"]),
    ("refuse_stability_weighted_norm_overflow", ["stability", "--matrix", T, "--q", "4",
                                                 "--wseq", "inputs/ws_table_huge.json"]),
    ("refuse_aq_dual_underflow", ["weights", "aq", "--wseq", "inputs/ws_table_huge.json",
                                  "--q", "1.5"]),
    ("refuse_aq_dual_overflow", ["weights", "aq", "--wseq", "inputs/ws_table_tiny.json",
                                 "--q", "1.5"]),
    ("refuse_toeplitz_coeff_inf", ["toeplitz", "stability", "--coeffs", "inf@0,1@1",
                                   "--radii", "8,16"]),
    ("refuse_minmod_coeff_nan_json", ["toeplitz", "minmod", "--coeffs", "inputs/sym_nan.json"]),
    ("refuse_gen_coeff_nan", ["gen", "--kind", "toeplitz_from_coeffs", "--radius", "4",
                              "--coeffs", "nan@0,1@1"]),
    ("refuse_minmod_repeated_index", ["toeplitz", "minmod", "--coeffs", "2@0,1@0"]),
    ("refuse_gen_repeated_index_d2", ["gen", "--kind", "toeplitz_from_coeffs", "--d", "2",
                                      "--radius", "2", "--coeffs", "1@0,0;2@0,0"]),
    ("refuse_gen_amplitude_inf", ["gen", "--kind", "banded_random", "--radius", "4",
                                  "--bandwidth", "1", "--seed", "1", "--amplitude", "inf"]),
    ("refuse_gen_alpha_nan", ["gen", "--kind", "polynomial_decay_random", "--radius", "4",
                              "--seed", "1", "--alpha", "nan"]),
    ("refuse_aq_product_overflow", ["weights", "aq", "--wseq", "inputs/ws_table_extreme.json",
                                    "--radius", "16", "--q", "2"]),
    ("refuse_stability_aq_product_overflow", ["stability", "--matrix", T, "--q", "4",
                                              "--wseq", "inputs/ws_table_extreme.json"]),
    ("refuse_aq_q_nan", ["weights", "aq", "--wseq", "power:0.5", "--q", "nan"]),
    ("refuse_invert_tol_inf", ["invert", "--matrix", T, "--tol", "inf"]),
    ("refuse_invert_tol_nan", ["invert", "--matrix", T, "--tol", "nan"]),
    ("refuse_recip_tol_nan", ["toeplitz", "recip", "--coeffs", "2@0,1@1", "--tol", "nan"]),
    ("refuse_thetafit_tmax_nan", ["thetafit", "--u", "polynomial:2", "--tmax", "nan"]),
    ("refuse_thetafit_tmax_inf", ["thetafit", "--u", "polynomial:2", "--tmax", "inf"]),
    ("refuse_stability_cross_no_pairs", ["stability", "cross", "--matrix", T, "--pairs", ";"]),
    # options of the `stability` group itself would go unused by `cross`
    ("refuse_stability_options_before_cross", ["stability", "--trials", "5", "cross",
                                               "--matrix", T, "--pairs", "4:trivial"]),
    # a symbol file whose d is not the call's
    ("refuse_minmod_symbol_d_mismatch", ["toeplitz", "minmod", "--d", "2",
                                         "--coeffs", "inputs/sym_d1.json"]),
    ("refuse_toeplitz_symbol_d_mismatch", ["toeplitz", "stability", "--d", "2",
                                           "--coeffs", "inputs/sym_d1.json", "--radii", "2,4"]),
    # options that the --kind of `gen` does not read
    ("refuse_gen_identity_unread_options", ["gen", "--kind", "identity", "--radius", "2",
                                            "--bandwidth", "3", "--alpha", "2",
                                            "--coeffs", "1@0"]),
    ("refuse_gen_shift_seed", ["gen", "--kind", "shift", "--radius", "2", "--seed", "5"]),
    # refused as vanishing: each exits 2
    ("refuse_recip_underflow", ["toeplitz", "recip", "--coeffs", "1e-310@0"]),
    ("refuse_recip_grid_cap", ["toeplitz", "recip", "--coeffs", "1@0,-0.999@1"]),
    # --kmax 3 stops the series of I - S short of tol: the report is written, then exit 2
    ("invert_not_converged", ["invert", "--matrix", V, "--kmax", "3"]),
]

SEEDS = (1, 7, 42)


def _offdiag(args, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "offdiag.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _record(dest: Path, proc: subprocess.CompletedProcess, stdout: str, src: str) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "stdout.txt").write_text(stdout)
    (dest / "stderr.txt").write_text(proc.stderr.replace(src, "SRC"))
    (dest / "exit_code.txt").write_text(f"{proc.returncode}\n")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/snapshot_artifacts.py OUT", file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # the children run in OUT, so the package is found by absolute path
    src = str(Path(offdiag.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    inputs = out / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, doc in INPUTS.items():
        (inputs / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))

    for name, args in CALLS:
        dest = Path("calls") / name
        proc = _offdiag([*args, "--out", str(dest)], out, env)
        _record(out / dest, proc, proc.stdout, src)

    for seed in SEEDS:
        for quick in (False, True):
            dest = Path("suite") / f"seed{seed}{'_quick' if quick else ''}"
            proc = _offdiag(["suite", "--seed", str(seed), "--out", str(dest),
                             *(["--quick"] if quick else [])], out, env)
            _record(out / dest, proc, re.sub(r"\(\d+\.\d+s\)", "(-s)", proc.stdout), src)
    print(f"wrote {len(CALLS)} CLI calls and {2 * len(SEEDS)} suite runs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
