"""The compile workload: paper-matrix.

It is a closed loop with one caller: each operation builds its circuit,
drops the process-wide preprocessing cache (so no compile is served staged
work from an earlier one) and calls the public ``repro.compile`` API, which
compiles and validates.  A round runs every operation of the workload once;
a run repeats whole rounds until its time is up.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import repro
from repro.circuits.library import registry
from repro.circuits.scheduling import clear_preprocess_cache


@dataclass
class Op:
    """One compile request: which circuit, which backend, which options."""

    label: str
    build: object
    backend: str
    options: dict
    gates_2q: int = 0


@dataclass
class Round:
    wall_s: float
    latencies_s: list[float | None]  # per operation; None where it failed
    outputs: list[dict | None]  # result summary per operation
    failed: int


def paper_matrix_ops(seed: int) -> list[Op]:
    """Every paper circuit on every registered backend, in a seeded order.

    ZAC and the ideal bound (which post-processes a ZAC run) share a ZAC
    configuration whose annealing seed is the workload seed.
    """
    config = repro.ZACConfig(seed=seed)
    ops = [
        Op(name, lambda name=name: registry.get_benchmark(name), backend,
           {"config": config} if backend in ("zac", "ideal") else {})
        for name in registry.benchmark_names()
        for backend in repro.available_backends()
    ]
    random.Random(seed).shuffle(ops)
    return ops


def count_gates(ops: list[Op]) -> None:
    for op in ops:
        op.gates_2q = checks.count_2q(op.build())


def run_round(ops: list[Op]) -> Round:
    """Run every operation once, keeping only each result's summary."""
    latencies, outputs, failed = [], [], 0
    start = perf_counter()
    for op in ops:
        clear_preprocess_cache()
        circuit = op.build()
        begin = perf_counter()
        try:
            result = repro.compile(circuit, backend=op.backend, **op.options)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            print(f"failed: {op.backend} on {op.label}: {exc!r}", file=sys.stderr)
            failed += 1
            latencies.append(None)
            outputs.append(None)
            continue
        latencies.append(perf_counter() - begin)
        outputs.append(result.summary())
    return Round(perf_counter() - start, latencies, outputs, failed)


def request_geomean_ms(latencies_by_request) -> float:
    """Geomean over distinct requests of each one's median latency, in ms.

    Each request weighs the same, whatever its size, and the median of its
    repeats ignores one slow repeat; a pooled median over a few distinct
    requests would jump between neighbouring ones instead.
    """
    return geomean(np.median(times) * 1e3 for times in latencies_by_request if len(times))


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(list(values), dtype=float)))))


def check_rounds(ops: list[Op], rounds: list[Round], seed: int) -> None:
    """Compile every operation once more, untimed, and check each program.

    Each program is checked as soon as it is made and then dropped, so the
    checks hold no results while the timed rounds run.  Every timed round
    must have produced the same summary as this compile.
    """
    rng = np.random.default_rng(seed)
    fidelity: dict[tuple[str, str], float] = {}
    for index, op in enumerate(ops):
        if rounds[0].outputs[index] is None:
            continue  # failed in the timed rounds, counted there
        clear_preprocess_cache()
        circuit = op.build()
        result = repro.compile(circuit, backend=op.backend, **op.options)
        if not result.validated:
            raise checks.CheckError(f"{op.backend} on {op.label}: result not validated")
        checks.check_program(circuit, op.backend, result, rng)
        want = checks.stable_summary(result.summary())
        for round_ in rounds:
            got = round_.outputs[index]
            if got is None or checks.stable_summary(got) != want:
                raise checks.CheckError(f"{op.backend} on {op.label}: output differs between rounds")
        fidelity[(op.label, op.backend)] = result.total_fidelity
    for (label, backend), value in fidelity.items():
        if backend == "ideal" and (label, "zac") in fidelity and value < fidelity[(label, "zac")]:
            raise checks.CheckError(
                f"{label}: ideal fidelity {value} below ZAC's {fidelity[(label, 'zac')]}"
            )


def error_per_2q_gate(fidelities, gates_2q) -> float:
    """``-ln`` of the product of the fidelities, per two-qubit gate compiled.

    Unlike a geometric mean of fidelities, this stays steady on circuits of
    a thousand gates, whose fidelity is ~1e-9 and moves by tens of percent
    with the annealing seed alone.
    """
    return -sum(np.log(list(fidelities))) / sum(gates_2q)


def zac_quality(ops: list[Op], round_: Round) -> tuple[float, float]:
    """ZAC's error per two-qubit gate and geomean duration over the workload's circuits."""
    zac = [(op, out) for op, out in zip(ops, round_.outputs) if out is not None and op.backend == "zac"]
    return (
        error_per_2q_gate((s["fidelity"] for _, s in zac), (op.gates_2q for op, _ in zac)),
        geomean(s["duration_us"] for _, s in zac),
    )
