"""Compare the benchmark on two source checkouts: a parent and a change.

    python3 bench/compare.py run PARENT CHANGE --out pairs.jsonl
    python3 bench/compare.py report pairs.jsonl

``run`` makes PAIRS pairs of runs of every workload of BENCHMARK.json, each
run as long as its ``run_seconds``.  A pair is one run on each checkout with
the same seed (SEED0 + pair index, away from the seeds used while tuning),
and the side that runs first alternates from pair to pair.  Each result is
appended to the JSONL file.  Both checkouts must hold identical ``bench/``
files.

``report`` prints one row per workload.  For each end-to-end metric of
BENCHMARK.json it gives each side's median and quartiles, the fraction of
pairs the change won, and a verdict:

* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
* ``better``: the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance between
  the parent's quartiles;
* ``unresolved``: the spread of either side (quartile distance over median)
  exceeds the bound, unless every change run beat every parent run;
* ``unchanged``: otherwise.

A ``better`` verdict does not count when the change failed more operations
than the parent; the row then says so.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PAIRS = 10
SEED0 = 1000


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound: float, better: str = "lower") -> dict:
    """Apply the comparison rule to paired samples (parent[k] with change[k])."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (cm - pm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse_by > bound:
        call = "worse"
    elif wins >= 0.9 * len(parent) and -sign * (cm - pm) > p3 - p1:
        call = "better"
    elif spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(parent), "change_pct": 100.0 * (cm - pm) / abs(pm),
            "spread": spread, "verdict": call}


def report(records) -> list[str]:
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {side: sorted((r for r in records if r["workload"] == workload
                              and r["side"] == side), key=lambda r: r["pair"])
                for side in ("parent", "change")}
        pairs = sorted({r["pair"] for r in runs["parent"]} & {r["pair"] for r in runs["change"]})
        failed = {side: sum(r["result"]["failed"] for r in runs[side] if r["pair"] in pairs)
                  for side in runs}
        cells = [workload]
        for m in SPEC["end_to_end"]:
            values = {side: [r["result"]["metrics"][m["name"]]["value"]
                             for r in runs[side] if r["pair"] in pairs] for side in runs}
            v = verdict(values["parent"], values["change"], m["bound"], m["better"])
            call = v["verdict"]
            if call == "better" and failed["change"] > failed["parent"]:
                call = "better, not counted: more failures"
            cells.append(
                f"{m['name']} {v['parent'][1]:.4g} [{v['parent'][0]:.4g}, {v['parent'][2]:.4g}]"
                f" -> {v['change'][1]:.4g} [{v['change'][0]:.4g}, {v['change'][2]:.4g}] {m['unit']}"
                f" ({v['change_pct']:+.1f}%, wins {v['wins']}/{v['pairs']}, "
                f"spread {v['spread']:.1%}) {call}")
        cells.append(f"failed {failed['parent']} -> {failed['change']}")
        rows.append(" | ".join(cells))
    return rows


def _same_tree(cmp: filecmp.dircmp) -> bool:
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(_same_tree(sub) for sub in cmp.subdirs.values())


def run_pairs(parent: Path, change: Path, out: Path):
    if not _same_tree(filecmp.dircmp(parent / "bench", change / "bench",
                                     ignore=["__pycache__", ".pytest_cache"])):
        sys.exit("compare: the two checkouts hold different bench/ files")
    with open(out, "a") as fh:
        for workload in (w["name"] for w in SPEC["workloads"]):
            for k in range(PAIRS):
                order = (("parent", parent), ("change", change))
                for side, root in (order if k % 2 == 0 else order[::-1]):
                    proc = subprocess.run(
                        [sys.executable, "bench/run.py", "--workload", workload,
                         "--seed", str(SEED0 + k), "--seconds", str(SPEC["run_seconds"]),
                         "--trace", "0"],
                        cwd=root, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
                    lines = proc.stdout.strip().splitlines()
                    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
                    fh.write(json.dumps({"workload": workload, "pair": k, "side": side,
                                         "first": (k % 2 == 0) == (side == "parent"),
                                         "seed": SEED0 + k, "env": env,
                                         "result": json.loads(lines[-1])}) + "\n")
                    fh.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    r.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("report")
    p.add_argument("results", type=Path)
    args = ap.parse_args()
    if args.cmd == "run":
        run_pairs(args.parent.resolve(), args.change.resolve(), args.out)
    else:
        records = [json.loads(line) for line in args.results.read_text().splitlines() if line]
        print("\n".join(report(records)))


if __name__ == "__main__":
    main()
