"""Self-time arithmetic on a synthetic span tree, and the traced-run wiring."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
from layertrace import Span

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None),   # 0
        Span("a", 1.0, 4.0, 0),          # 1: children cover [2, 3]
        Span("b", 2.0, 3.0, 1),          # 2: leaf
        Span("a", 3.5, 6.0, 0),          # 3: leaf, same layer as 1
        Span("c", 5.0, 8.0, 0),          # 4: overlaps 3 by [5, 6]
        Span("d", 9.0, 12.0, 0),         # 5: runs past its parent's end
    ]
    got = layertrace.self_times(spans)
    # root: [1, 8] and [9, 10] covered -> 10 - 8 = 2
    assert got == pytest.approx({"root": 2.0, "a": 2.0 + 2.5, "b": 1.0, "c": 3.0, "d": 3.0})


def test_per_pass_reports_every_metric_averaged_over_passes():
    tracer = layertrace.Tracer()
    tracer.spans += [Span("lattice.decay_profile", 0.0, 2.0, None),
                     Span("weights.grid", 0.5, 1.5, 0)]
    tracer.counts["lattice.decay_profile.calls"] = 4
    got = layertrace.per_pass(tracer, passes=2)
    assert set(got) == set(layertrace.PER_LAYER) - {"trace.overhead_s"}
    assert got["lattice.decay_profile.self_s"] == pytest.approx(0.5)
    assert got["weights.grid.self_s"] == pytest.approx(0.5)
    assert got["lattice.decay_profile.calls"] == 2
    assert got["suite.C01.self_s"] == 0.0


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layertrace.PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_install_routes_calls_between_modules_through_the_tracer():
    # install() rebinds module globals for good, so it runs in its own process
    code = f"""
import sys
sys.path[:0] = [{str(run.ROOT / "bench")!r}, {str(run.ROOT / "src")!r}]
import layertrace
from offdiag import lattice, norms
from offdiag.weights import WeightMatrix
tracer = layertrace.Tracer()
layertrace.install(tracer)
a = lattice.generate("banded_random", lattice.Window(1, 3), seed=0, bandwidth=1)
norms.norm_report(a, 2.0, WeightMatrix.polynomial(1.0, 1))
for s in tracer.spans:
    print(s.layer, tracer.spans[s.parent].layer if s.parent is not None else "-")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    edges = {tuple(line.split()) for line in out.splitlines()}
    assert ("lattice.generate", "-") in edges
    assert ("norms.norm_report", "-") in edges
    assert ("norms.beurling_norm", "norms.norm_report") in edges
    assert ("lattice.decay_profile", "norms.beurling_norm") in edges
    assert ("weights.grid", "lattice.decay_profile") in edges


def test_a_disabled_tracer_calls_straight_through_and_records_nothing():
    tracer = layertrace.Tracer()
    square = layertrace._wrap(tracer, "lattice.multiply", lambda x: x * x)
    tracer.enabled = False
    assert square(3) == 9
    assert tracer.spans == [] and not tracer.counts
    tracer.enabled = True
    assert square(4) == 16
    assert [s.layer for s in tracer.spans] == ["lattice.multiply"]


def test_a_criterion_run_inside_another_counts_toward_the_outer_one():
    tracer = layertrace.Tracer()
    inner = layertrace._criterion(tracer, "C01", lambda: "inner")
    outer = layertrace._criterion(tracer, "C14", lambda: [inner(), inner()])
    inner()
    outer()
    assert [s.layer for s in tracer.spans] == ["suite.C01", "suite.C14"]
