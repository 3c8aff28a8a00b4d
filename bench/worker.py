"""One workload in its own process, so that its peak RSS is its own.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --seconds S
                            [--setup-only] [--trace 0|1] [--spans PATH]

Set-up time runs from the top of this file, before numpy or offdiag is
imported, to the end of the workload's set-up.  One warm-up pass follows,
checked but not timed, so that the allocator and first-call costs settle.
Timed passes then run until the next one would end past --seconds.  With
--trace 1 the layers are wrapped once, before the warm-up, and the timed
passes alternate untraced and traced (at least one of each), so the tracing
overhead is measured in the same process and over the same stretch of time.
The last line of standard output is one JSON object; run.py reads it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import envstamp  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Passes:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, workload) -> float:
        """One pass, timed and then checked; returns its duration.

        A pass fails when it raises or when its output misses the oracle; the
        oracle runs outside the timed region.  Only the first problems are kept.
        """
        gc.collect()
        t = time.perf_counter()
        try:
            out = workload.run()
            dt = time.perf_counter() - t
            missed = workload.check(out)
        except Exception as exc:  # a raising pass is a failed operation, not a crash
            dt = time.perf_counter() - t
            missed = [f"{type(exc).__name__}: {exc}"]
        self.times.append(dt)
        if missed:
            self.failed += 1
            self.problems += missed[: max(0, 5 - len(self.problems))]
        return dt


def timed_passes(workload, budget: float, tracer: layertrace.Tracer | None = None):
    """Passes until the next would end past budget seconds: (untraced, traced).

    With a tracer, untraced and traced passes alternate, starting untraced,
    and the loop runs at least one of each; without one, traced stays empty.
    """
    untraced, traced = Passes(), Passes()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.enabled = len(traced.times) < len(untraced.times)
        dt = (traced if tracer and tracer.enabled else untraced).run(workload)
        if time.perf_counter() - start + dt > budget and (tracer is None or traced.times):
            if tracer:
                tracer.enabled = False
            return untraced, traced


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
            tracer.enabled = False
        warm = Passes()
        warm.run(workload)
        untraced, traced = timed_passes(workload, args.seconds, tracer)
        runs = [warm, untraced, traced]
        if tracer:
            if args.spans:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                with open(args.spans, "w") as fh:
                    fh.writelines(json.dumps(vars(s)) + "\n" for s in tracer.spans)
            layers = layertrace.per_pass(tracer, len(traced.times))
            layers["trace.overhead_s"] = (statistics.median(traced.times)
                                          - statistics.median(untraced.times))
            result.update(layers=layers, traced_times=traced.times)
        result.update(times=untraced.times,
                      attempted=sum(len(r.times) for r in runs),
                      failed=sum(r.failed for r in runs),
                      problems=[p for r in runs for p in r.problems][:5],
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      env=envstamp.stamp())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
