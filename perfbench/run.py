"""sgwalk benchmark: four seeded workloads, checked against numpy references.

    python3 perfbench/run.py --workload walk-dense --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program measured is ``src/sgwalk`` of
that checkout.  Load model: closed loop, one client in this process running
operations back to back; BLAS pools are pinned to one thread (see benchenv).

A run executes whole rounds of operations (see ``workloads.py``) and starts
another round only while it still fits in ``--seconds``; the first round
always runs, and every round repeats the same mix.  Each latency is scaled
by the machine speed sampled during it (see ``calibrate.py``), so that a
slow phase of a shared machine does not read as a slow program; the raw
figures are printed on a ``#`` line.  Throughput, median and p90 latency are
taken per round and reported as medians over the rounds.  Each operation
runs under a SIGALRM wall-clock guard, its output is written to disk, and
all outputs are checked once measuring has ended, so checking costs neither
latency nor peak memory.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
round, plus the walk-dense baseline operations, twice: untraced in a child
process and traced here.  It prints the per-layer metrics and writes the
spans and per-operation records under ``.perfbench-out/``.  The last line
of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchenv
import calibrate

SETUP_PROBES = 9          # set-up is timed in this many fresh processes
OP_LIMIT_S = 30.0         # per-operation wall-clock guard
RUN_CAP_S = 120.0         # no operation starts after this much measuring
CHILD_LIMIT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), (".s", "s"), ("flops_est", "flop"),
                         ("_ratio", "ratio"), (".bytes", "B"), ("cpu_per_wall", "ratio")):
        if name.endswith(suffix):
            return unit
    return "ms" if ".ms_per_call." in name else "count"


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that overran its guard."""


def _alarm(signum, frame):
    raise OpTimeout


def guarded(call, limit: float):
    """call() under a wall-clock guard: SIGALRM in the main thread, no threads."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return call(), None
    except OpTimeout:
        return None, f"timeout after {limit:.0f} s"
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    op: object
    round: int
    latency: float
    cpu: float
    error: str | None
    output: Path | None
    started: bool = False
    scaled: float = 0.0   # latency at nominal machine speed, set by run_ops
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_ops(ops, rnd, outdir: Path, records: list, speed: calibrate.SpeedSampler,
            deadline: float = float("inf"), tracer=None) -> None:
    """Run ``ops`` in order and record each; one that the deadline stops from
    starting is recorded as failed.  ``speed`` takes a sample before every
    operation (and inside operations while its timer runs); latencies are
    scaled once the last operation has a sample after it."""
    intervals = []
    for op in ops:
        if time.perf_counter() > deadline:
            records.append(Record(op, rnd, 0.0, 0.0, "not started: run deadline passed", None))
            intervals.append(None)
            continue
        speed.take()
        index = len(records)
        if tracer is not None:
            tracer.op = index
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out, error = guarded(op.call, OP_LIMIT_S)
        except OpTimeout:  # the alarm fired after the call had returned
            out, error = None, "timeout"
        end, cpu = time.perf_counter(), time.process_time() - cpu
        intervals.append((start, end))
        if tracer is not None:
            tracer.op = None
        path = None
        if error is None:
            path = outdir / f"out-{index}.json"
            path.write_text(json.dumps(out))
        records.append(Record(op, rnd, end - start, cpu, error, path, started=True))
    speed.take()
    for rec, interval in zip(records[len(records) - len(ops):], intervals):
        if interval is not None:
            wall = rec.latency
            rec.latency, rec.scaled = speed.scale(*interval)
            rec.cpu -= wall - rec.latency


def check_all(records) -> None:
    for rec in records:
        if rec.error is not None:
            continue
        try:
            rec.problems = rec.op.check(json.loads(rec.output.read_text()))
        except Exception as exc:
            rec.problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]


def report_failures(records) -> None:
    for i, rec in enumerate(records):
        if rec.failed:
            reasons = [rec.error] if rec.error else rec.problems[:3]
            print(f"# FAILED op {i} ({rec.op.family}, n={rec.op.n}, {rec.op.sub}): "
                  + "; ".join(reasons), file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads

    outdir = workdir / "out"
    outdir.mkdir()
    records: list = []
    t0 = time.perf_counter()
    rnd = 0
    with calibrate.SpeedSampler() as speed:
        while True:
            inputs = workdir / f"round-{rnd}"
            inputs.mkdir()
            ops = workloads.make_round(workload, seed, rnd, inputs)
            start = time.perf_counter()
            run_ops(ops, rnd, outdir, records, speed, t0 + RUN_CAP_S)
            shutil.rmtree(inputs)
            if rnd == 0:
                # Peak memory of set-up plus one complete round: later rounds
                # repeat the mix, and the checks' inputs they keep would make
                # the figure grow with the number of rounds a faster program
                # fits in.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rnd += 1
            now = time.perf_counter()
            if now - t0 + (now - start) > seconds:
                break
    check_all(records)
    return records, rnd, peak_rss_mb, [cost for _, cost in speed.samples]


def run_child(kind: str, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_LIMIT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> list:
    """Import plus input generation, each time in a fresh interpreter, scaled
    by the machine speed that interpreter measured right after."""
    times = []
    for _ in range(SETUP_PROBES):
        got = run_child("setup", workload, seed)
        times.append(got["setup_s"] * calibrate.NOMINAL_S / got["kernel_s"])
    return times


def run_trace_round(workload: str, seed: int, workdir: Path, tracer=None) -> list:
    """The operations of a traced run, with no deadline: the first round plus
    the baseline operations.  The untraced and the traced pass both run this,
    and their records are matched by index.  Spans read a clock that leaves
    out the speed samples, so no span is charged for them."""
    import workloads

    ops = workloads.make_round(workload, seed, 0, workdir, baseline=True)
    (workdir / "out").mkdir()
    records: list = []
    with calibrate.SpeedSampler() as speed:
        if tracer is not None:
            tracer.install(speed.program_clock)
        try:
            run_ops(ops, 0, workdir / "out", records, speed, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return records


def probe(kind: str, workload: str, seed: int, start: float) -> None:
    import workloads

    workdir = benchenv.OUT / f"probe-{kind}-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if kind == "setup":
            workloads.make_round(workload, seed, 0, workdir)
            setup = time.perf_counter() - start
            kernel_s = statistics.median(calibrate.timed_kernel() for _ in range(15))
            print(json.dumps({"setup_s": setup, "kernel_s": kernel_s}))
            return
        records = run_trace_round(workload, seed, workdir)
        print(json.dumps({"latency_s": [r.latency for r in records],
                          "scaled_s": [r.scaled for r in records],
                          "cpu_s": [r.cpu for r in records]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace(workload: str, seed: int, workdir: Path):
    """Per-layer metrics from the traced round, plus its records."""
    import tracing
    import workloads

    untraced = run_child("untraced", workload, seed)
    tracer = tracing.Tracer()
    records = run_trace_round(workload, seed, workdir, tracer)
    check_all(records)

    metrics = tracing.layer_metrics(tracer.spans, workloads.SCENARIOS.SCENARIO_IDS)
    metrics["run.cpu_per_wall"] = sum(untraced["cpu_s"]) / sum(untraced["latency_s"])
    metrics["trace.overhead_ratio"] = (sum(r.scaled for r in records)
                                       / sum(untraced["scaled_s"]))
    eig = tracing.per_op(tracer.spans)
    per_op = []
    for i, rec in enumerate(records):
        calls, eig_s, sizes = eig[i]
        per_op.append({
            "workload": workload, "index": i,
            "family": rec.op.family, "n": rec.op.n, "subcommand": rec.op.sub,
            "latency_s": untraced["latency_s"][i], "scaled_latency_s": untraced["scaled_s"][i],
            "traced_latency_s": rec.latency, "eig_calls": calls, "eig_s": eig_s,
            "eig_n": sizes, "ok": not rec.failed,
        })
    return records, metrics, per_op, tracer


def latency_metrics(records, attr: str) -> dict:
    """Throughput, median and p90 per round, as medians over the rounds.
    Every round repeats the same mix, so a round that meets a burst of load
    on the machine moves them least."""
    by_round: dict = {}
    for r in records:
        if r.started:
            by_round.setdefault(r.round, []).append(getattr(r, attr))
    per_round = list(by_round.values())
    return {
        "ops_per_s": statistics.median(len(lat) / sum(lat) for lat in per_round),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in per_round),
        "op_p90_ms": 1e3 * statistics.median(p90(lat) for lat in per_round),
    }


def main(argv=None) -> int:
    start = time.perf_counter()  # set-up probes time the imports below
    threads = benchenv.pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    benchenv.use_checkout_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        probe(args.probe, args.workload, args.seed, start)
        return 0

    env = benchenv.environment(threads)
    workdir = benchenv.OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            records, metrics, per_op, tracer = trace(args.workload, args.seed, workdir)
            units = {name: layer_unit(name) for name in metrics}
            stem = benchenv.OUT / f"trace-{args.workload}-seed{args.seed}"
            tracer.write(f"{stem}.spans.jsonl.gz")
            Path(f"{stem}.json").write_text(json.dumps(
                {"environment": env, "workload": args.workload, "seed": args.seed,
                 "metrics": metrics, "ops": per_op}, indent=1))
        else:
            setup = setup_seconds(args.workload, args.seed)
            records, rounds, peak_rss_mb, kernel_s = measure(
                args.workload, args.seed, args.seconds, workdir)
            failed = sum(r.failed for r in records)
            metrics = {"setup_s": statistics.median(setup),
                       **latency_metrics(records, "scaled"),
                       "op_ok_ratio": 1.0 - failed / len(records),
                       "peak_rss_mb": peak_rss_mb}
            units = E2E_UNITS
            raw = latency_metrics(records, "latency")
            print(f"# {args.workload} seed {args.seed}: {len(records)} ops in {rounds} rounds, "
                  f"op_fail_ratio {failed}/{len(records)} = {failed / len(records):.6g}, "
                  f"scaled setup probes {[round(s, 4) for s in setup]}")
            print("# raw (unscaled) " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items())
                  + f"; speed kernel median {1e3 * statistics.median(kernel_s):.4g} ms "
                  f"over {len(kernel_s)} samples, nominal {1e3 * calibrate.NOMINAL_S:.4g} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(records)
    failed = sum(r.failed for r in records)
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
