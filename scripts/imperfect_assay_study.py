#!/usr/bin/env python3
"""Error-aware vs perfect-assumed estimation under imperfect assays.

Sweeps sensitivity settings at fixed specificity (or the reverse) and
reports the relative bias of both estimators.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iupm import ErrorRates, SimLevel, SimScenario, run_study
from iupm.simulate import IMPERFECT_MLE, PERFECT_ASSUMED_MLE


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truth", type=float, default=1.0)
    parser.add_argument("--n-dvl", type=int, default=6)
    parser.add_argument("--wells", type=int, nargs="+", default=[12, 24, 32])
    parser.add_argument("--sens", type=float, nargs="+", default=[0.8, 0.9, 1.0])
    parser.add_argument("--spec", type=float, default=0.9)
    parser.add_argument("--q", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20230)
    args = parser.parse_args()

    print("M,sens,spec,estimator,bias,ase,cp,n_used")
    for M in args.wells:
        for sens in args.sens:
            rates = ErrorRates(sens, args.spec, sens, args.spec)
            scenario = SimScenario(
                truth=args.truth,
                n_dvl=args.n_dvl,
                levels=(SimLevel(1.0, M, args.q),),
                model="imperfect",
                rates=rates,
                reps=args.reps,
                seed=args.seed,
            )
            results = run_study(scenario, estimators=[IMPERFECT_MLE, PERFECT_ASSUMED_MLE])
            for name, m in results.items():
                ase = "" if m.ase is None else f"{m.ase:.4f}"
                cp = "" if m.cp is None else f"{m.cp:.4f}"
                print(f"{M},{sens},{args.spec},{name},{m.bias:.4f},{ase},{cp},{m.n_used}")
                sys.stdout.flush()


if __name__ == "__main__":
    main()
