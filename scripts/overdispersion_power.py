#!/usr/bin/env python3
"""Empirical power of the overdispersion LRT over a dispersion grid."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iupm import SimLevel, SimScenario, lrt_power_study

WELL_TRIPLES = {"small": (6, 12, 18), "large": (30, 60, 90)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truth", type=float, default=1.0)
    parser.add_argument("--n-dvl", type=int, default=12)
    parser.add_argument("--gammas", type=float, nargs="+", default=[0.0, 0.2, 1.0, 4.0])
    parser.add_argument("--sizes", nargs="+", choices=list(WELL_TRIPLES), default=list(WELL_TRIPLES))
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20230)
    args = parser.parse_args()

    print("wells,gamma,power,reps")
    for size in args.sizes:
        M1, M2, M3 = WELL_TRIPLES[size]
        scenario = SimScenario(
            truth=args.truth,
            n_dvl=args.n_dvl,
            levels=(SimLevel(0.5, M1, 0.0), SimLevel(1.0, M2, 0.5), SimLevel(2.0, M3, 1.0)),
            model="negbin",
            reps=args.reps,
            seed=args.seed,
        )
        for row in lrt_power_study(scenario, args.gammas, alpha=args.alpha):
            print(f"({M1} {M2} {M3}),{row['gamma']},{row['power']},{row['reps']}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
