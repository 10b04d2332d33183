"""Output checks made apart from the program under test.

Everything here is computed by the benchmark itself: its own gate matrices,
its own statevector simulator, its own two-qubit decomposition rule.  No
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter

import numpy as np

#: Largest circuit whose compiled programs are replayed as statevectors.
STATEVECTOR_MAX_QUBITS = 14

#: Backends whose programs are made of OneQGateInst (U3) and RydbergInst (CZ).
NATIVE_BACKENDS = ("zac", "nalac", "enola", "ideal")

_S2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "id": [[1, 0], [0, 1]],
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "h": [[_S2, _S2], [_S2, -_S2]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    "tdg": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
    "sx": [[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]],
    "sxdg": [[0.5 - 0.5j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 - 0.5j]],
}


class CheckError(AssertionError):
    """An output check failed."""


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]]
    )


def _rot(axis: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])


def one_qubit_matrix(name: str, params: tuple) -> np.ndarray:
    if name in _FIXED:
        return np.array(_FIXED[name], dtype=complex)
    if name in ("rx", "ry", "rz"):
        return _rot(name[1], params[0])
    if name in ("p", "u1"):
        return np.array([[1, 0], [0, cmath.exp(1j * params[0])]])
    if name == "u2":
        return u3(math.pi / 2, params[0], params[1])
    if name in ("u3", "u"):
        return u3(*params)
    raise CheckError(f"the benchmark simulator has no matrix for 1q gate {name!r}")


def _controlled(target: np.ndarray, controls: int) -> np.ndarray:
    """Matrix of ``target`` controlled on ``controls`` leading qubits."""
    dim = 2 ** (controls + int(round(math.log2(target.shape[0]))))
    matrix = np.eye(dim, dtype=complex)
    matrix[dim - target.shape[0]:, dim - target.shape[0]:] = target
    return matrix


def multi_qubit_matrix(name: str, params: tuple) -> np.ndarray:
    """Matrix over the gate's qubits in argument order (first = most significant)."""
    x = np.array(_FIXED["x"], dtype=complex)
    if name in ("cx", "cnot"):
        return _controlled(x, 1)
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name in ("cp", "cu1"):
        return np.diag([1, 1, 1, cmath.exp(1j * params[0])])
    if name == "cry":
        return _controlled(_rot("y", params[0]), 1)
    if name == "rzz":
        phase = cmath.exp(-0.5j * params[0])
        return np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
    if name == "swap":
        return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    if name in ("ccx", "toffoli"):
        return _controlled(x, 2)
    if name in ("cswap", "fredkin"):
        return _controlled(np.eye(4, dtype=complex)[[0, 2, 1, 3]], 1)
    raise CheckError(f"the benchmark simulator has no matrix for gate {name!r}")


def apply(state: np.ndarray, matrix: np.ndarray, qubits: tuple) -> np.ndarray:
    """Apply ``matrix`` to ``qubits`` of a state shaped ``(2,) * n`` (axis q = qubit q)."""
    k = len(qubits)
    moved = np.moveaxis(state, qubits, range(k))
    shape = moved.shape
    out = (matrix @ moved.reshape(2**k, -1)).reshape(shape)
    return np.moveaxis(out, range(k), qubits)


def simulate_circuit(circuit, state: np.ndarray) -> np.ndarray:
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            matrix = one_qubit_matrix(gate.name, gate.params)
        else:
            matrix = multi_qubit_matrix(gate.name, gate.params)
        state = apply(state, matrix, tuple(gate.qubits))
    return state


def simulate_program(program, state: np.ndarray) -> np.ndarray:
    """Replay a ZAIR program's U3 stages and Rydberg CZ pairs, in program order."""
    cz = multi_qubit_matrix("cz", ())
    for inst in program.instructions:
        kind = type(inst).__name__
        if kind == "OneQGateInst":
            for loc, angles in zip(inst.locs, inst.unitaries):
                state = apply(state, u3(*angles), (loc.qubit,))
        elif kind == "RydbergInst":
            for a, b in inst.gates:
                state = apply(state, cz, (a, b))
        elif kind in ("GateLayerInst", "GlobalPulseInst"):
            raise CheckError(f"{kind} carries no unitary to replay")
    return state


def check_statevector(circuit, program, rng: np.random.Generator, trials: int = 2) -> None:
    """The program computes the circuit, up to global phase, on random states."""
    n = circuit.num_qubits
    for _ in range(trials):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        start = vec.reshape((2,) * n)
        want = simulate_circuit(circuit, start).ravel()
        got = simulate_program(program, start).ravel()
        overlap = abs(np.vdot(want, got))
        if not overlap > 1 - 1e-9:
            raise CheckError(f"{circuit.name}: |<circuit|program>| = {overlap:.12f}")


def predicted_pairs(circuit) -> Counter:
    """Entangled pairs the decomposition rule predicts for ``circuit``.

    cx/cz -> 1, cp/cry/rzz -> 2, ccx(a,b,c) -> 2 on each of its three pairs,
    cswap(c,a,b) -> (a,b) x4, (c,a) x2, (c,b) x2.
    """
    pairs: Counter = Counter()

    def add(a: int, b: int, times: int) -> None:
        pairs[(min(a, b), max(a, b))] += times

    for gate in circuit.gates:
        q = gate.qubits
        if len(q) == 1:
            continue
        if gate.name in ("cx", "cnot", "cz"):
            add(*q, 1)
        elif gate.name in ("cp", "cu1", "cry", "rzz"):
            add(*q, 2)
        elif gate.name in ("ccx", "toffoli"):
            add(q[0], q[1], 2)
            add(q[0], q[2], 2)
            add(q[1], q[2], 2)
        elif gate.name in ("cswap", "fredkin"):
            c, a, b = q
            add(a, b, 4)
            add(c, a, 2)
            add(c, b, 2)
        else:
            raise CheckError(f"the decomposition rule has no entry for {gate.name!r}")
    return pairs


def count_2q(circuit) -> int:
    """Total two-qubit gates the decomposition rule predicts (the work unit)."""
    return sum(predicted_pairs(circuit).values())


def program_pairs(program) -> Counter:
    pairs: Counter = Counter()
    for inst in program.instructions:
        if type(inst).__name__ in ("RydbergInst", "GlobalPulseInst"):
            for a, b in inst.gates:
                pairs[(min(a, b), max(a, b))] += 1
    return pairs


def check_program(circuit, backend: str, result, rng: np.random.Generator) -> None:
    """Every check that applies to one compiled program."""
    program = result.program
    if program is None:
        raise CheckError(f"{backend} on {circuit.name}: no program attached")
    want = predicted_pairs(circuit)
    total = sum(want.values())
    if backend in NATIVE_BACKENDS:
        got = program_pairs(program)
        if got != want:
            raise CheckError(
                f"{backend} on {circuit.name}: entangled pairs differ from the rule "
                f"({sum(got.values())} vs {total})"
            )
        if circuit.num_qubits <= STATEVECTOR_MAX_QUBITS:
            check_statevector(circuit, program, rng)
    elif backend == "sc":
        got = sum(
            1
            for inst in program.instructions
            for gate in getattr(inst, "gates", ())
            if gate.kind == "2q"
        )
        if got != total:
            raise CheckError(f"sc on {circuit.name}: {got} non-SWAP 2q gates, rule says {total}")
    elif backend == "atomique":
        extra = sum(program_pairs(program).values()) - total
        if extra < 0 or extra % 3:
            raise CheckError(f"atomique on {circuit.name}: {extra} pairs beyond the rule")


def stable_summary(summary: dict) -> dict:
    """A result summary without its wall-clock fields (``compile_time_s``, ``time_*_s``)."""
    return {
        key: value
        for key, value in summary.items()
        if key != "compile_time_s" and not (key.startswith("time_") and key.endswith("_s"))
    }
