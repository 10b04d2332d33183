"""Paths, child-process environment and summary statistics."""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The program under test: ``src/`` beside the benchmark's directory.
SRC = HERE.parent / "src"
#: Everything a run writes (bytecode, cache directories, traces); ignored by git.
OUT = HERE / "out"
PYCACHE = OUT / "pycache"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {SRC}/repro")
    OUT.mkdir(exist_ok=True)
    # Bytecode is cached (whatever PYTHONDONTWRITEBYTECODE says), as it is
    # for an installed package, but under out/ so runs never rewrite files
    # that git tracks.
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
