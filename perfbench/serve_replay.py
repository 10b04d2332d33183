"""The serve-replay workload: a Zipf-popular request log against ``repro serve``.

One client keeps at most :data:`WINDOW` requests in flight over the daemon's
stdio.  A round starts a daemon over an empty disk cache, replays the log
and stops it.  The run ends with a second daemon over the last round's cache,
sent each unique request once more; all must be served from disk.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import repro
from common import OUT, child_env, peak_rss_mb

#: Small circuits of the log: (generator, parameters), cycled over the
#: unique requests.  At most 14 qubits, so their programs replay as
#: statevectors in the checks.
SERVE_CELLS = (
    ("brickwork", {"num_qubits": 8, "depth": 6}),
    ("brickwork", {"num_qubits": 12, "depth": 8}),
    ("clifford_t", {"num_qubits": 10, "depth": 6, "pair_prob": 1.0}),
    ("clifford_t", {"num_qubits": 14, "depth": 8, "pair_prob": 1.0}),
    ("qaoa_regular", {"num_qubits": 10, "depth": 2}),
    ("qaoa_regular", {"num_qubits": 12, "depth": 1}),
    ("hardware_efficient", {"num_qubits": 8, "depth": 4}),
    ("hardware_efficient", {"num_qubits": 12, "depth": 3}),
)
N_UNIQUE = 48
#: Requests per cell: every cell gets the same share of the log, so the
#: mix of circuit sizes (and with it the cost of a hit) does not move with
#: the seed; the seed moves which circuits of a cell are popular.
REQUESTS_PER_CELL = 188
N_REQUESTS = REQUESTS_PER_CELL * len(SERVE_CELLS)
ZIPF_EXPONENT = 1.1
QASM_SHARE = 0.25
WINDOW = 2


def to_qasm(circuit) -> str:
    """OpenQASM 2 text of a circuit, with every angle written exactly."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        params = f"({','.join(repr(float(p)) for p in gate.params)})" if gate.params else ""
        lines.append(f"{gate.name}{params} {','.join(f'q[{q}]' for q in gate.qubits)};")
    return "\n".join(lines) + "\n"


@dataclass
class RequestLog:
    circuits: list  # unique circuits, as the benchmark built them
    requests: list[dict]  # compile params of each request of the log
    unique: list[int]  # unique-circuit index of each request of the log
    restart_requests: list[dict]  # one request per unique circuit, after the restart
    gates_2q: list[int]

    @property
    def repeat_share(self) -> float:
        return 1.0 - len(set(self.unique)) / len(self.unique)


def _params(circuit, descriptor, as_qasm: bool) -> dict:
    if as_qasm:
        spec = {"qasm": to_qasm(circuit), "name": circuit.name}
    else:
        spec = {"descriptor": descriptor.to_dict()}
    return {"circuit": spec, "backend": "zac"}


def make_log(seed: int) -> RequestLog:
    """Seeded unique circuits and a Zipf-popular log of requests for them.

    Each cell's circuits share :data:`REQUESTS_PER_CELL` requests: every
    circuit once, the rest drawn from a Zipf law over a seeded popularity
    ranking of the cell.  A fixed share :data:`QASM_SHARE` of the requests,
    at seeded positions, send the circuit as QASM text, the rest as a
    generator descriptor; both forms of a circuit address one cache entry.
    """
    rng = np.random.default_rng(seed)
    generated = []
    for index in range(N_UNIQUE):
        generator, cell = SERVE_CELLS[index % len(SERVE_CELLS)]
        generated.append(repro.generate(generator, seed=seed * N_UNIQUE + index, **cell))
    unique = []
    for first in range(len(SERVE_CELLS)):
        members = np.arange(first, N_UNIQUE, len(SERVE_CELLS))
        weights = 1.0 / (rng.permutation(len(members)) + 1.0) ** ZIPF_EXPONENT
        unique.extend(members)
        unique.extend(rng.choice(members, size=REQUESTS_PER_CELL - len(members), p=weights / weights.sum()))
    unique = np.array(unique)
    rng.shuffle(unique)
    as_qasm = np.arange(N_REQUESTS) < round(QASM_SHARE * N_REQUESTS)
    rng.shuffle(as_qasm)
    requests = [
        _params(generated[u].circuit, generated[u].descriptor, bool(q))
        for u, q in zip(unique, as_qasm)
    ]
    restart = [_params(w.circuit, w.descriptor, bool(i % 2)) for i, w in enumerate(generated)]
    circuits = [w.circuit for w in generated]
    return RequestLog(
        circuits, requests, [int(u) for u in unique], restart, [checks.count_2q(c) for c in circuits]
    )


# -- the stdio daemon ---------------------------------------------------------


class StdioDaemon:
    """A ``repro serve --stdio`` child; ``setup_s`` is spawn to first health reply."""

    def __init__(self, cache_dir: str) -> None:
        start = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio", "--cache-dir", cache_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
        )
        try:
            self._send({"id": "health", "method": "health"})
            if self._recv().get("result", {}).get("status") != "ok":
                raise RuntimeError("daemon did not report healthy")
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _send(self, request: dict) -> None:
        self.process.stdin.write((json.dumps(request) + "\n").encode())
        self.process.stdin.flush()

    def _recv(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("daemon closed its stdout")
        return json.loads(line)

    def replay(self, params: list[dict]) -> list[tuple[float, dict]]:
        """Send compile requests with at most WINDOW in flight; (latency, response) each."""
        out: list = [None] * len(params)
        sent: dict[int, float] = {}
        pending = iter(range(len(params)))

        def send_next() -> None:
            index = next(pending, None)
            if index is not None:
                sent[index] = perf_counter()
                self._send({"id": index, "method": "compile", "params": params[index]})

        for _ in range(WINDOW):
            send_next()
        while sent:
            response = self._recv()
            index = response["id"]
            out[index] = (perf_counter() - sent.pop(index), response)
            send_next()
        return out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def close(self) -> None:
        """Ask the daemon to drain and exit; kill it if it does not."""
        if self.process.poll() is None:
            try:
                self._send({"id": "shutdown", "method": "shutdown"})
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "StdioDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Round:
    setup_s: float
    wall_s: float
    replies: list[tuple[float, dict]]
    peak_rss_mb: float


@dataclass
class Run:
    rounds: list[Round]
    restart_setup_s: float
    disk_replies: list[tuple[float, dict]]  # after the restart, one per unique circuit

    @property
    def setups_s(self) -> list[float]:
        return [r.setup_s for r in self.rounds] + [self.restart_setup_s]


def fresh_cache_dir() -> str:
    return tempfile.mkdtemp(prefix="serve-cache-", dir=OUT)


def warm_up() -> None:
    """Start and stop one daemon so the first measured spawn finds warm files."""
    cache_dir = fresh_cache_dir()
    try:
        with StdioDaemon(cache_dir):
            pass
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run(log: RequestLog, seconds: float) -> Run:
    """Replay the log in whole rounds for ``seconds``, then restart once.

    Each round starts a daemon over an empty disk cache.  After the last
    round a second daemon starts over that round's cache and is sent each
    unique request once.
    """
    rounds: list[Round] = []
    cache_dir = None
    start = perf_counter()
    try:
        while not rounds or perf_counter() - start < seconds:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir = fresh_cache_dir()
            rounds.append(run_round(log, cache_dir))
        with StdioDaemon(cache_dir) as restarted:
            disk_replies = restarted.replay(log.restart_requests)
        return Run(rounds, restarted.setup_s, disk_replies)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)


def run_round(log: RequestLog, cache_dir: str) -> Round:
    with StdioDaemon(cache_dir) as daemon:
        start = perf_counter()
        replies = daemon.replay(log.requests)
        wall = perf_counter() - start
        rss = daemon.peak_rss_mb()
    return Round(daemon.setup_s, wall, replies, rss)


def served(reply) -> str:
    return reply[1].get("result", {}).get("served", "error")


def failed(run_: Run) -> int:
    replies = [reply for r in run_.rounds for reply in r.replies] + run_.disk_replies
    return sum(1 for reply in replies if not reply[1].get("ok"))


# -- the same log against an in-process daemon (the traced run) ---------------


@dataclass
class InProcessReplay:
    wall_s: float
    latencies_s: list[float]
    served: list[str]
    restart_served: list[str]
    stats: dict


def replay_in_process(log: RequestLog, tracer=None) -> InProcessReplay:
    """Replay the log against a ``ServeDaemon`` in this process, then restart it.

    Requests go through ``ServeDaemon.handle`` as the decoded JSON lines the
    stdio transport would read; ``tracer`` spans the decode and encode steps
    the transport would do.
    """
    from contextlib import nullcontext

    from repro.circuits.scheduling import clear_preprocess_cache
    from repro.serve.daemon import ServeDaemon

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    lines = [
        json.dumps({"id": k, "method": "compile", "params": p}) for k, p in enumerate(log.requests)
    ]
    disk_lines = [
        json.dumps({"id": k, "method": "compile", "params": p})
        for k, p in enumerate(log.restart_requests)
    ]

    async def replay(daemon, requests) -> tuple[list[float], list[str]]:
        latencies: list = [None] * len(requests)
        served_as: list = [None] * len(requests)
        pending = iter(enumerate(requests))

        async def client() -> None:
            for index, line in pending:
                begin = perf_counter()
                with span("serve.decode"):
                    request = json.loads(line)
                response = await daemon.handle(request)
                with span("serve.encode"):
                    json.dumps(response, sort_keys=True).encode()
                latencies[index] = perf_counter() - begin
                served_as[index] = response.get("result", {}).get("served", "error")

        await asyncio.gather(*(client() for _ in range(WINDOW)))
        return latencies, served_as

    async def main() -> InProcessReplay:
        cache_dir = fresh_cache_dir()
        try:
            daemon = ServeDaemon(cache_dir=cache_dir)
            daemon.scheduler.start()
            start = perf_counter()
            latencies, served_as = await replay(daemon, lines)
            wall = perf_counter() - start
            await daemon.scheduler.stop()
            stats = {
                "cache": daemon.service.cache_stats()["results"],
                "scheduler": daemon.scheduler.stats(),
            }
            restarted = ServeDaemon(cache_dir=cache_dir)
            restarted.scheduler.start()
            _, restart_served = await replay(restarted, disk_lines)
            await restarted.scheduler.stop()
            return InProcessReplay(wall, latencies, served_as, restart_served, stats)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    clear_preprocess_cache()
    return asyncio.run(main())


# -- checks --------------------------------------------------------------------


def check_run(log: RequestLog, run_: Run, seed: int) -> list[dict]:
    """Serve checks; returns the daemon's summary of each unique request.

    Exactly one reply per unique circuit in each round is ``compiled``; every
    reply after the restart comes from ``disk``; every reply for a circuit,
    in every round and after the restart, equals a direct ``repro.compile``
    of the benchmark's own circuit, wall-clock fields aside.
    """
    rng = np.random.default_rng(seed)
    direct = []
    for circuit in log.circuits:
        result = repro.compile(circuit, backend="zac")
        checks.check_program(circuit, "zac", result, rng)
        direct.append(checks.stable_summary(result.summary()))
    for round_ in run_.rounds:
        compiled = [0] * N_UNIQUE
        failed_circuits = set()  # their failed requests are counted in `failed`
        for unique, reply in zip(log.unique, round_.replies):
            if not reply[1].get("ok"):
                failed_circuits.add(unique)
                continue
            how = served(reply)
            if how not in ("compiled", "memory", "coalesced"):
                raise checks.CheckError(f"request for unique {unique} served as {how!r}")
            compiled[unique] += how == "compiled"
            _check_reply(reply, direct[unique], unique)
        if any(n != 1 for u, n in enumerate(compiled) if u not in failed_circuits):
            raise checks.CheckError(f"compiled replies per unique circuit: {compiled}")
    for unique, reply in enumerate(run_.disk_replies):
        if not reply[1].get("ok"):
            continue
        if served(reply) != "disk":
            raise checks.CheckError(f"after restart, unique {unique} served as {served(reply)!r}")
        _check_reply(reply, direct[unique], unique)
    return direct


def _check_reply(reply, want: dict, unique: int) -> None:
    result = reply[1]["result"]
    if not result.get("validated"):
        raise checks.CheckError(f"unique {unique}: reply not validated")
    if checks.stable_summary(result["summary"]) != want:
        raise checks.CheckError(f"unique {unique}: daemon summary differs from a direct compile")
