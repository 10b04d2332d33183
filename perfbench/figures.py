"""Paper reference figures from one paper-matrix round (reported, not gated).

Usage (from the repository root)::

    python3 perfbench/figures.py [--seed 1]

Prints, over the 17 paper circuits, ZAC's geometric-mean fidelity gain over
each baseline (the paper's Fig. 8 / Table 2 comparison) and its gap to the
``ideal`` bound, plus the per-circuit fidelities behind them.
"""

from __future__ import annotations

import argparse
import math

from common import use_source_tree

use_source_tree()

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="ZAC annealing seed")
    args = parser.parse_args()
    ops = workloads.paper_matrix_ops(args.seed)
    round_ = workloads.run_round(ops)
    fidelity: dict[str, dict[str, float]] = {}
    for op, output in zip(ops, round_.outputs):
        fidelity.setdefault(op.label, {})[op.backend] = output["fidelity"]
    backends = sorted({op.backend for op in ops} - {"zac"})
    print(f"{'circuit':16s}" + "".join(f"{b:>12s}" for b in ["zac", *backends]))
    for label in sorted(fidelity):
        row = fidelity[label]
        print(f"{label:16s}" + "".join(f"{row[b]:12.4g}" for b in ["zac", *backends]))
    print()
    for backend in backends:
        ratio = math.exp(
            sum(math.log(row["zac"] / row[backend]) for row in fidelity.values()) / len(fidelity)
        )
        what = "gap to" if backend == "ideal" else "gain over"
        print(f"ZAC geomean fidelity {what} {backend}: {ratio:.3f}x")


if __name__ == "__main__":
    main()
