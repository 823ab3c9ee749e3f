#!/usr/bin/env python3
"""Fit every subject in data/subjects_qvoa.json and print estimates.

These are count-only fits (the per-lineage sequencing data are not part of
the bundled summaries), reported as MLE and bias-corrected MLE with 95%
intervals.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iupm import DilutionLevelData, MultiDilutionAssay, bias_correct, fit_mle


def subject_assay(record):
    levels = tuple(
        DilutionLevelData(u=u, M=M, M_N=M - MP, m=0, Y=(), q=0.0)
        for u, M, MP in zip(record["u"], record["M"], record["MP"])
    )
    return MultiDilutionAssay(levels, 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data",
        default=Path(__file__).resolve().parents[1] / "data" / "subjects_qvoa.json",
        type=Path,
    )
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args()

    subjects = json.loads(args.data.read_text())["subjects"]
    print(f"{'subject':<8} {'mle':>6} {'ci':>16}   {'bc-mle':>6} {'ci':>16}")
    for name, record in subjects.items():
        assay = subject_assay(record)
        fit = fit_mle(assay, alpha=args.alpha)
        bc = bias_correct(fit, assay)
        print(
            f"{name:<8} {fit.iupm:6.2f} ({fit.ci[0]:5.2f}, {fit.ci[1]:5.2f})   "
            f"{bc.iupm:6.2f} ({bc.ci[0]:5.2f}, {bc.ci[1]:5.2f})"
        )


if __name__ == "__main__":
    main()
