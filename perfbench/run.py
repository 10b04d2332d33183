"""One benchmark for compiling and serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  With ``--workload all`` every workload
runs in this one process and prints its own line first.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import OUT, child_env, median, peak_rss_mb, percentile, use_source_tree

use_source_tree()

import checks  # noqa: E402
import serve_replay  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("paper-matrix", "serve-replay")

#: Per-layer metrics with their units, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "setup.import_repro_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "setup.import_networkx_s": "s",
    "circuits.build_ms": "ms",
    "circuits.qasm_parse_ms": "ms",
    "circuits.preprocess_ms": "ms",
    "circuits.stage_width": "gates",
    "core.placement.sa_ms": "ms",
    "core.placement.sa_us_per_iter": "us",
    "core.placement.dynamic_self_ms": "ms",
    "core.placement.gate_placement_ms": "ms",
    "core.placement.gate_placement_calls": "count",
    "core.placement.storage_placement_ms": "ms",
    "core.placement.storage_placement_calls": "count",
    "core.placement.storage_calls_per_stage": "1",
    "core.placement.reuse_ms": "ms",
    "core.routing.build_jobs_ms": "ms",
    "core.routing.jobs": "count",
    "core.scheduling.run_ms": "ms",
    "zair.interpret_ms": "ms",
    "zair.validate_ms": "ms",
    "zair.instructions": "count",
    "baselines.enola_ms": "ms",
    "baselines.atomique_ms": "ms",
    "baselines.nalac_ms": "ms",
    "baselines.sc_ms": "ms",
    "baselines.ideal_ms": "ms",
    "api.compile_ms": "ms",
    "api.compile_batch_ms": "ms",
    "api.cache_hits": "count",
    "api.cache_misses": "count",
    "serve.executed": "count",
    "serve.coalesced": "count",
    "serve.handle_ms": "ms",
    "serve.cache_key_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.compile_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.diskcache_put_ms": "ms",
    "serve.diskcache_get_ms": "ms",
    "serve.requests_per_s": "req/s",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.disk_hit_p50_ms": "ms",
    "trace.coverage": "1",
    "trace.overhead": "1",
    "trace.spans": "count",
}

#: Per-layer metric -> span whose mean self time per call it reports.
SELF_TIME_SPANS = {
    "circuits.build_ms": "circuits.build",
    "circuits.qasm_parse_ms": "circuits.qasm_parse",
    "circuits.preprocess_ms": "circuits.preprocess",
    "core.placement.sa_ms": "core.placement.sa",
    "core.placement.dynamic_self_ms": "core.placement.dynamic",
    "core.placement.gate_placement_ms": "core.placement.gate_placement",
    "core.placement.storage_placement_ms": "core.placement.storage_placement",
    "core.placement.reuse_ms": "core.placement.reuse",
    "core.routing.build_jobs_ms": "core.routing.build_jobs",
    "core.scheduling.run_ms": "core.scheduling.run",
    "zair.interpret_ms": "zair.interpret",
    "zair.validate_ms": "zair.validate",
    "baselines.enola_ms": "baselines.enola",
    "baselines.atomique_ms": "baselines.atomique",
    "baselines.nalac_ms": "baselines.nalac",
    "baselines.sc_ms": "baselines.sc",
    "baselines.ideal_ms": "baselines.ideal",
    "api.compile_ms": "api.compile",
    "api.compile_batch_ms": "api.compile_batch",
    "serve.handle_ms": "serve.handle",
    "serve.cache_key_ms": "api.cache_key",
    "serve.queue_wait_ms": "serve.queue_wait",
    "serve.compile_ms": "serve.compile",
    "serve.encode_ms": "serve.encode",
    "serve.diskcache_put_ms": "serve.diskcache_put",
    "serve.diskcache_get_ms": "serve.diskcache_get",
}

#: Per-layer metric -> span whose calls per traced round it reports.
CALL_COUNTS = {
    "core.placement.gate_placement_calls": "core.placement.gate_placement",
    "core.placement.storage_placement_calls": "core.placement.storage_placement",
}

SETUP_CODE = "import repro; repro.reference_zoned_architecture()"
MIN_SETUP_SAMPLES = 3


# -- set-up -------------------------------------------------------------------


def fresh_interpreter_setup() -> float:
    """Wall time of one fresh interpreter importing repro and building the machine."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True)
    return time.perf_counter() - start


def import_times() -> dict[str, float]:
    """Cumulative import times from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return {
        "setup.import_repro_s": cumulative["repro"] / 1e6,
        "setup.import_scipy_optimize_s": cumulative.get("scipy.optimize", 0) / 1e6,
        "setup.import_networkx_s": cumulative.get("networkx", 0) / 1e6,
    }


# -- per-layer metrics from a trace ---------------------------------------------


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    totals, calls = tracer.self_times()
    counts = tracer.counts
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, span in SELF_TIME_SPANS.items():
        if calls[span]:
            values[metric] = totals[span] / calls[span] / 1e6
    for metric, span in CALL_COUNTS.items():
        values[metric] = calls[span] / rounds
    if counts["stages"]:
        values["circuits.stage_width"] = counts["stage_gates"] / counts["stages"]
    if counts["sa.iterations"]:
        values["core.placement.sa_us_per_iter"] = totals["core.placement.sa"] / 1e3 / counts["sa.iterations"]
    if counts["dynamic.stages"]:
        values["core.placement.storage_calls_per_stage"] = (
            calls["core.placement.storage_placement"] / counts["dynamic.stages"]
        )
    values["core.routing.jobs"] = counts["jobs"] / rounds
    if calls["zair.interpret"]:
        values["zair.instructions"] = counts["instructions"] / calls["zair.interpret"]
    values["trace.spans"] = len(tracer.spans) / rounds
    return values


# -- paper-matrix -----------------------------------------------------------------


def run_paper_matrix(seed: int, seconds: float) -> dict:
    ops = workloads.paper_matrix_ops(seed)
    workloads.count_gates(ops)
    fresh_interpreter_setup()  # warm the file cache
    # One set-up sample before each timed round, so set-up time is the
    # median over the whole run rather than over one moment of it.
    setups, rounds = [], []
    start = time.perf_counter()
    while len(setups) < MIN_SETUP_SAMPLES or time.perf_counter() - start < seconds:
        setups.append(fresh_interpreter_setup())
        rounds.append(workloads.run_round(ops))
    rss = peak_rss_mb()
    correct = _checked(lambda: workloads.check_rounds(ops, rounds, seed))
    error, duration = workloads.zac_quality(ops, rounds[0])
    # Each compile's median over the rounds: a burst of machine noise in one
    # round moves the sums less than it moves that round's wall time.
    per_op = [[r.latencies_s[i] for r in rounds if r.latencies_s[i] is not None] for i in range(len(ops))]
    done = [(op, median(times)) for op, times in zip(ops, per_op) if times]
    busy_s = sum(t for _, t in done)
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "compiles_per_s": (len(done) / busy_s, "compiles/s"),
        "gates_2q_per_s": (sum(op.gates_2q for op, _ in done) / busy_s, "gates/s"),
        "zac_error_per_2q_gate": (error, "1/gate"),
        "zac_duration_geomean_us": (duration, "us"),
        "request_geomean_ms": (workloads.request_geomean_ms(per_op), "ms"),
    }
    return _result(correct, len(ops) * len(rounds), sum(r.failed for r in rounds), metrics)


def trace_paper_matrix(seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics come from the traced ones."""
    ops = workloads.paper_matrix_ops(seed)
    workloads.count_gates(ops)
    imports = import_times()
    tracer = Tracer()
    untraced, traced, coverage = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(workloads.run_round(ops))
        mark = len(tracer.spans)
        with tracer:
            begin = time.perf_counter_ns()
            traced.append(workloads.run_round(ops))
            end = time.perf_counter_ns()
        coverage.append(tracer.coverage(begin, end, mark))
    tracer.write_chrome_trace(OUT / f"trace-paper-matrix-seed{seed}.json")

    def same_outputs() -> None:
        for a, b in zip(untraced, traced):
            if [checks.stable_summary(s) for s in a.outputs if s] != [
                checks.stable_summary(s) for s in b.outputs if s
            ]:
                raise checks.CheckError("traced round computed different outputs")

    correct = _checked(same_outputs)
    values = {**layer_metrics(tracer, len(traced)), **imports}
    values["trace.coverage"] = median(coverage)
    values["trace.overhead"] = median(r.wall_s for r in traced) / median(r.wall_s for r in untraced) - 1
    rounds = untraced + traced
    return _layer_result(correct, len(ops) * len(rounds), sum(r.failed for r in rounds), values)


# -- serve-replay ----------------------------------------------------------------


def _serve_latency_metrics(stdio: serve_replay.Run) -> dict[str, float]:
    round_ = stdio.rounds[0]
    hits = [t for t, r in round_.replies if r.get("result", {}).get("served") == "memory"]
    misses = [t for t, r in round_.replies if r.get("result", {}).get("served") == "compiled"]
    return {
        "serve.requests_per_s": len(round_.replies) / round_.wall_s,
        "serve.hit_p50_ms": percentile(hits, 50) * 1e3,
        "serve.hit_p99_ms": percentile(hits, 99) * 1e3,
        "serve.miss_p50_ms": percentile(misses, 50) * 1e3,
        "serve.disk_hit_p50_ms": percentile([t for t, _ in stdio.disk_replies], 50) * 1e3,
    }


def run_serve_workload(seed: int, seconds: float) -> dict:
    log = serve_replay.make_log(seed)
    serve_replay.warm_up()
    run = serve_replay.run(log, seconds)
    direct: list[dict] = []
    correct = _checked(lambda: direct.extend(serve_replay.check_run(log, run, seed)))
    answered, gates, per_circuit = [], [], [[] for _ in log.circuits]
    for r in run.rounds:
        ok = [(u, t) for u, (t, reply) in zip(log.unique, r.replies) if reply.get("ok")]
        answered.append(len(ok) / r.wall_s)
        gates.append(sum(log.gates_2q[u] for u, _ in ok) / r.wall_s)
        for u, t in ok:
            per_circuit[u].append(t)
    summaries = direct or [reply[1]["result"]["summary"] for reply in run.disk_replies]
    metrics = {
        "setup_s": (median(run.setups_s), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in run.rounds), "MB"),
        "compiles_per_s": (median(answered), "compiles/s"),
        "gates_2q_per_s": (median(gates), "gates/s"),
        "zac_error_per_2q_gate": (
            workloads.error_per_2q_gate((s["fidelity"] for s in summaries), log.gates_2q), "1/gate"
        ),
        "zac_duration_geomean_us": (workloads.geomean(s["duration_us"] for s in summaries), "us"),
        "request_geomean_ms": (workloads.request_geomean_ms(per_circuit), "ms"),
    }
    attempted = len(run.rounds) * len(log.requests) + len(log.restart_requests)
    return _result(correct, attempted, serve_replay.failed(run), metrics)


def trace_serve_workload(seed: int, seconds: float) -> dict:
    """One stdio round and restart, then the same log in process untraced and traced."""
    log = serve_replay.make_log(seed)
    imports = import_times()
    serve_replay.warm_up()
    stdio = serve_replay.run(log, 0)
    plain = serve_replay.replay_in_process(log)
    tracer = Tracer()
    with tracer:
        begin = time.perf_counter_ns()
        traced = serve_replay.replay_in_process(log, tracer)
        end = time.perf_counter_ns()
    tracer.write_chrome_trace(OUT / f"trace-serve-replay-seed{seed}.json")

    def check() -> None:
        serve_replay.check_run(log, stdio, seed)
        for replay in (plain, traced):
            compiled = [0] * serve_replay.N_UNIQUE
            for unique, how in zip(log.unique, replay.served):
                compiled[unique] += how == "compiled"
            if compiled != [1] * serve_replay.N_UNIQUE or set(replay.restart_served) != {"disk"}:
                raise checks.CheckError("in-process replay served requests differently")

    correct = _checked(check)
    values = {**layer_metrics(tracer, 1), **imports, **_serve_latency_metrics(stdio)}
    in_process_hits = [t for t, how in zip(plain.latencies_s, plain.served) if how == "memory"]
    values["serve.transport_ms"] = values["serve.hit_p50_ms"] - percentile(in_process_hits, 50) * 1e3
    values["api.cache_hits"] = traced.stats["cache"]["hits"]
    values["api.cache_misses"] = traced.stats["cache"]["misses"]
    values["serve.executed"] = traced.stats["scheduler"]["executed"]
    values["serve.coalesced"] = traced.stats["scheduler"]["coalesced"]
    values["trace.coverage"] = tracer.coverage(begin, end)
    values["trace.overhead"] = traced.wall_s / plain.wall_s - 1
    attempted = len(log.requests) + len(log.restart_requests)
    failed = serve_replay.failed(stdio) + sum(
        how == "error" for replay in (plain, traced) for how in replay.served + replay.restart_served
    )
    return _layer_result(correct, 3 * attempted, failed, values)


# -- output ---------------------------------------------------------------------


def _checked(check) -> bool:
    try:
        check()
    except checks.CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return False
    return True


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }


def _layer_result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    return _result(
        correct, attempted, failed,
        {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()},
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "serve-replay":
        return (trace_serve_workload if trace else run_serve_workload)(seed, seconds)
    return (trace_paper_matrix if trace else run_paper_matrix)(seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, **results[name]}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
