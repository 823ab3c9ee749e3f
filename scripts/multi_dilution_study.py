#!/usr/bin/env python3
"""Multi-dilution Monte Carlo grid: three levels with mixed sequencing.

Default design: dilutions (0.5, 1, 2) million cells per well, sequencing
fractions (0, 0.5, 1), well-count triples scaled from a base pattern.
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

WELL_TRIPLES = {"small": (6, 12, 18), "medium": (9, 18, 27), "large": (12, 24, 36)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truth", type=float, default=1.0)
    parser.add_argument("--n-dvl", type=int, nargs="+", default=[6, 12, 18])
    parser.add_argument("--sizes", nargs="+", choices=list(WELL_TRIPLES), default=list(WELL_TRIPLES))
    parser.add_argument("--allocation", choices=["constant", "non-constant"], default="constant")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20230)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    chunks = []
    for n_dvl in args.n_dvl:
        for size in args.sizes:
            M1, M2, M3 = WELL_TRIPLES[size]
            scenario = SimScenario(
                truth=args.truth,
                n_dvl=n_dvl,
                allocation=args.allocation,
                levels=(SimLevel(0.5, M1, 0.0), SimLevel(1.0, M2, 0.5), SimLevel(2.0, M3, 1.0)),
                reps=args.reps,
                seed=args.seed,
            )
            results = run_study(
                scenario,
                estimators=[MLE_WITH_UDSA, BC_MLE_WITH_UDSA, MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA],
                comparator=MLE_WITHOUT_UDSA,
            )
            name = f"n{n_dvl}_{size}"
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
