"""Smoke tests: every script in scripts/ runs, and every study file in
data/studies/ parses and runs its first scenario through ``iupm simulate``."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from iupm.cli import main
from iupm.simulate import study_from_json

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
STUDIES = ROOT / "data" / "studies"

METRICS_HEADER = "scenario,estimator,truth,n_used,discarded,bias,ase,ese,cp,re"

CASES = {"fit_subjects.py": ([], "subject mle ci bc-mle ci")}
DIGEST = "output_digest.py"  # prints digests, not a table

STUDY_HEADERS = {
    "single_dilution.json": METRICS_HEADER,
    "multi_dilution.json": METRICS_HEADER,
    "overdispersion_power.json": "scenario,gamma,power,reps",
    "imperfect_assay.json": METRICS_HEADER,
}


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted([*CASES, DIGEST])


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


def test_output_digest_repeats():
    """Two runs of the digest on the smallest workload print the same line."""
    def run():
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / DIGEST), "--workload", "fit-large-m", "--seeds", "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run()
    name, digest = first.split()
    assert name == "fit-large-m" and len(digest) == 64
    assert run() == first


def test_output_digest_dump_hashes_to_its_line(tmp_path):
    """``--dump`` writes the values that the printed digest hashes."""
    dump = tmp_path / "outputs.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / DIGEST), "--workload", "fit-large-m", "--seeds", "0", "--dump", str(dump)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    name, digest = proc.stdout.split()

    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, list):
            return [hexed(v) for v in value]
        return {key: hexed(v) for key, v in value.items()} if isinstance(value, dict) else value

    outputs = json.loads(dump.read_text())
    assert list(outputs) == [name] and len(outputs[name]) >= 2
    sha = hashlib.sha256()
    for key, flat in outputs[name].items():
        assert isinstance(flat["estimate.iupm"], float)
        sha.update(json.dumps([key, hexed(flat)]).encode())
    assert sha.hexdigest() == digest


def test_every_study_is_covered():
    assert sorted(p.name for p in STUDIES.glob("*.json")) == sorted(STUDY_HEADERS)


@pytest.mark.parametrize("study", sorted(STUDY_HEADERS))
def test_study_parses(study):
    doc = json.loads((STUDIES / study).read_text())
    parsed = study_from_json((STUDIES / study).read_text())
    assert [entry.name for entry in parsed] == [sc["name"] for sc in doc["scenarios"]]


@pytest.mark.parametrize("study", sorted(STUDY_HEADERS))
def test_study_runs_first_scenario(study, tmp_path):
    first = json.loads((STUDIES / study).read_text())["scenarios"][0]
    path = tmp_path / study
    path.write_text(json.dumps({"scenarios": [{**first, "reps": 2}]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", "--input", str(path)])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == STUDY_HEADERS[study]
    assert len(lines) >= 2 and all(line.startswith(first["name"] + ",") for line in lines[1:])
