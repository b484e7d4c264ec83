"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py -q

Traced counts must repeat exactly for one seed, a second seed and a later
round must keep the family and size histogram, the per-operation guard must
turn an overrun into a failure, an operation the run deadline stops must
count as failed, and BENCHMARK.json must name exactly the metrics the
benchmark prints.
"""

import json
import time
from pathlib import Path

import pytest

import benchenv

benchenv.use_checkout_program()

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap operations of each first round that still reach the layers the
# workload reaches.
CHEAP = {
    "walk-dense": lambda op: op.n <= 32,
    "pst-sweep": lambda op: op.n <= 6,
    "powers": lambda op: op.n <= 256,
    "scenarios": lambda op: op.family in {
        "fig1-cycles", "k8-signed", "quotient-equiv", "ext-q3", "sym-vs-ext", "boson-ladder"},
}

COUNT_SUFFIXES = (".calls", ".states", ".points", ".bytes", "distinct_ratio", "flops_est",
                  "exp_evals", "amp_per_call", "refine_rounds")


def traced_counts(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    records = []
    try:
        ops = [op for op in workloads.make_round(workload, seed, 0, workdir) if CHEAP[workload](op)]
        run.run_ops(ops, 0, workdir, records, calibrate.SpeedSampler(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert records and all(r.error is None for r in records)
    metrics = tracing.layer_metrics(tracer.spans, workloads.SCENARIOS.SCENARIO_IDS)
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload, tmp_path):
    first = traced_counts(workload, 7, tmp_path / "first")
    second = traced_counts(workload, 7, tmp_path / "second")
    assert first == second
    assert first["construct.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_and_rounds_keep_family_and_size_histogram(workload, tmp_path):
    mixes = []
    for seed, rnd in ((7, 0), (8, 0), (8, 1)):
        workdir = tmp_path / f"{seed}-{rnd}"
        workdir.mkdir()
        ops = workloads.make_round(workload, seed, rnd, workdir)
        mixes.append([(op.family, op.n, op.sub) for op in ops])
    assert mixes[0] == mixes[1] == mixes[2]


def test_overrun_is_recorded_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)
    slow = workloads.Op("sleep", 0, "sleep", lambda: time.sleep(5), lambda out: [])
    records = []
    start = time.perf_counter()
    run.run_ops([slow], 0, tmp_path, records, calibrate.SpeedSampler())
    assert time.perf_counter() - start < 2.0
    assert records[0].failed and records[0].error.startswith("timeout")


def test_operation_past_the_deadline_counts_as_failed(tmp_path):
    ops = [workloads.Op("noop", 0, "noop", lambda: 1, lambda out: []) for _ in range(2)]
    records = []
    run.run_ops(ops, 0, tmp_path, records, calibrate.SpeedSampler(), deadline=-1.0)
    assert len(records) == 2 and all(r.failed and not r.started for r in records)


def test_benchmark_json_names_every_metric():
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = tracing.layer_metrics([], workloads.SCENARIOS.SCENARIO_IDS)
    names = list(layer) + ["run.cpu_per_wall", "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in names}


def test_samples_inside_an_operation_are_taken_out_of_its_latency(tmp_path):
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    records = []
    with calibrate.SpeedSampler() as speed:
        run.run_ops([workloads.Op("busy", 0, "busy", busy, lambda out: [])], 0, tmp_path,
                    records, speed)
    inside = [cost for _, cost in speed.samples[1:-1]]  # one sample comes before, one after
    assert len(inside) >= 5
    assert 0.3 - sum(inside) - 0.01 < records[0].latency < 0.3 - sum(inside) + 0.01
    assert records[0].scaled > 0.0
