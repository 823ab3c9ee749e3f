"""Smoke test: every script in scripts/ runs on its smallest grid."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

STUDY_HEADER = "scenario,estimator,truth,n_used,discarded,bias,ase,ese,cp,re"

CASES = {
    "fit_subjects.py": ([], "subject mle ci bc-mle ci"),
    "single_dilution_study.py": (
        ["--n-dvl", "2", "--wells", "6", "--q", "1.0", "--reps", "2"], STUDY_HEADER
    ),
    "multi_dilution_study.py": (["--n-dvl", "2", "--sizes", "small", "--reps", "2"], STUDY_HEADER),
    "overdispersion_power.py": (
        ["--n-dvl", "2", "--gammas", "0.0", "--sizes", "small", "--reps", "2"],
        "wells,gamma,power,reps",
    ),
    "imperfect_assay_study.py": (
        ["--n-dvl", "2", "--wells", "6", "--sens", "0.9", "--reps", "2"],
        "M,sens,spec,estimator,bias,ase,cp,n_used",
    ),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs_on_smallest_grid(script):
    args, header = CASES[script]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert " ".join(lines[0].split()) == header
    assert len(lines) >= 2
