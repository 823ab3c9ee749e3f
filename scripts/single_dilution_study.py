#!/usr/bin/env python3
"""Single-dilution Monte Carlo grid: wells x sequenced fraction x lineages.

Writes one CSV row per (cell, estimator) with bias/ASE/ESE/CP/RE columns.
At the defaults (1000 replicates) the full 3x3x3 grid takes a few minutes.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iupm import SimLevel, SimScenario, run_study
from iupm.simulate import (
    BC_MLE_WITHOUT_UDSA,
    BC_MLE_WITH_UDSA,
    MLE_WITHOUT_UDSA,
    MLE_WITH_UDSA,
    metrics_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truth", type=float, default=1.0)
    parser.add_argument("--n-dvl", type=int, nargs="+", default=[6, 12, 18])
    parser.add_argument("--wells", type=int, nargs="+", default=[12, 24, 32])
    parser.add_argument("--q", type=float, nargs="+", default=[0.5, 0.75, 1.0])
    parser.add_argument("--allocation", choices=["constant", "non-constant"], default="constant")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20230)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    chunks = []
    for n_dvl in args.n_dvl:
        for M in args.wells:
            for q in args.q:
                scenario = SimScenario(
                    truth=args.truth,
                    n_dvl=n_dvl,
                    allocation=args.allocation,
                    levels=(SimLevel(1.0, M, q),),
                    reps=args.reps,
                    seed=args.seed,
                )
                results = run_study(
                    scenario,
                    estimators=[MLE_WITH_UDSA, BC_MLE_WITH_UDSA, MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA],
                    comparator=MLE_WITHOUT_UDSA,
                )
                name = f"n{n_dvl}_M{M}_q{q}"
                text = metrics_csv(results, name, args.truth)
                chunks.append(text if not chunks else text.split("\n", 1)[1])
                print(f"done {name}", file=sys.stderr)
    output = "".join(chunks)
    if args.out:
        args.out.write_text(output)
    else:
        sys.stdout.write(output)


if __name__ == "__main__":
    main()
