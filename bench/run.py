"""offdiag benchmark: one workload, measured from outside, checked by oracles.

    python3 bench/run.py --workload {suite,invert,stability} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout; ``offdiag`` is imported from its
``src/``.  The workload runs in a child process (bench/worker.py) so that
peak RSS belongs to that workload alone, with BLAS held to as many threads as
there are usable CPUs.  Set-up is measured in SETUPS separate processes,
half of the extra ones before the timed child and half after it, so that the
samples span the run, and reported as their median.  Scratch files go to ``.bench_work/`` in the
checkout, which is also the child's TMPDIR.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a traced
run, whose spans are kept in ``.bench_work/spans/``.  The lines before it
give the same numbers for a reader, the environment stamp and the failure
ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layertrace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 5  # set-ups per run, each in its own process; setup_s is their median
END_TO_END = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def child(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "offdiag" / "__init__.py").is_file():
        print(f"bench: no offdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(work),
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(work),
            "--seconds", str(args.seconds)]
    before = (SETUPS - 1) // 2

    def setup_only() -> float:
        return child(base + ["--setup-only"], env, 60)["setup_s"]

    try:
        setups = [setup_only() for _ in range(before)]
        extra = ["--trace", str(args.trace)]
        if args.trace:
            spans = ROOT / ".bench_work" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            extra += ["--spans", str(spans)]
        res = child(base + extra, env, args.seconds + 120)
        setups += [res["setup_s"]] + [setup_only() for _ in range(SETUPS - 1 - before)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = res["times"]
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {res['attempted']} passes, "
          f"{res['failed']} failed")
    for problem in res["problems"]:
        print(f"  oracle: {problem}")
    print(f"fail_ratio   {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']} of {res['attempted']} passes)")
    if args.trace:
        traced = res["traced_times"]
        metrics = {k: {"value": v, "unit": layertrace.PER_LAYER[k]}
                   for k, v in res["layers"].items()}
        print(f"tracing overhead {res['layers']['trace.overhead_s']:+.4f} s per pass "
              f"(traced wall_s median {statistics.median(traced):.4f} s over {len(traced)} "
              f"passes, untraced {statistics.median(times):.4f} s over {len(times)})")
        for k, m in sorted(metrics.items(), key=lambda kv: -abs(kv[1]["value"])):
            if m["value"]:
                print(f"  {k:<44} {m['value']:.6g} {m['unit']}")
    else:
        values = {"wall_s": statistics.median(times), "peak_rss_mib": res["peak_rss_mib"],
                  "setup_s": statistics.median(setups)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"wall_s       {values['wall_s']:.4f} s (median of {len(times)} passes, "
              f"max {max(times):.4f} s)")
        print(f"peak_rss_mib {values['peak_rss_mib']:.1f} MiB")
        print(f"setup_s      {values['setup_s']:.4f} s (median of {len(setups)} set-ups)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
