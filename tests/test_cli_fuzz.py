"""Random summary-json, wells-csv, scenario and study documents through ``cli.main``.

Each document starts from a well-formed one of tiny size (M <= 12, reps <= 3)
and may have one field replaced by a junk value.  Whatever the input, the
command must end with exit code 0, 2 or 3 and never raise.  A key that no
JSON format knows, in any object of any format, must end it with exit code 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from iupm.cli import main
from iupm.simulate import (
    BC_MLE_WITH_UDSA,
    BC_MLE_WITHOUT_UDSA,
    IMPERFECT_MLE,
    MLE_WITH_UDSA,
    MLE_WITHOUT_UDSA,
    NB_MLE,
    PERFECT_ASSUMED_MLE,
)

FUZZ = settings(max_examples=100, derandomize=True)

JUNK = st.sampled_from([None, "x", "", -1, 0, 2.5, True, [], {}, float("nan"), float("inf")])
ESTIMATORS = [
    MLE_WITH_UDSA, BC_MLE_WITH_UDSA, MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA,
    NB_MLE, IMPERFECT_MLE, PERFECT_ASSUMED_MLE,
]


def _mutate(draw, doc):
    """Maybe replace or delete one field of ``doc`` (a dict of dicts and lists)."""
    if not draw(st.booleans()):
        return doc
    target = doc
    while True:
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        if isinstance(target[key], (dict, list)) and target[key] and draw(st.booleans()):
            target = target[key]
            continue
        if isinstance(target, dict) and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JUNK)
        return doc


@st.composite
def sequenced_wells(draw, n, M):
    """Per-well (w, r, z) for one level: z has at least one lineage when w = 1."""
    wells = []
    for _ in range(M):
        w = draw(st.integers(0, 1))
        r = w and draw(st.integers(0, 1)) if n else 0
        z = None
        if r:
            z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
        wells.append((w, r, z))
    return wells


@st.composite
def summary_documents(draw, mutate=True):
    n = draw(st.integers(0, 3))
    us = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]), min_size=1, max_size=3, unique=True))
    levels = []
    for u in us:
        wells = draw(sequenced_wells(n, draw(st.integers(1, 12))))
        sequenced = [z for _, r, z in wells if r]
        level = {
            "u": u,
            "M": len(wells),
            "MN": sum(1 for w, _, _ in wells if not w),
            "m": len(sequenced),
            "Y": [sum(z[i] for z in sequenced) for i in range(n)],
        }
        if draw(st.booleans()):
            level["q"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
        levels.append(level)
    doc = {"n": n, "levels": levels}
    return json.dumps(_mutate(draw, doc) if mutate else doc)


@st.composite
def wells_documents(draw):
    n = draw(st.integers(0, 3))
    us = draw(st.lists(st.sampled_from(["0.5", "1.0", "2.0"]), min_size=1, max_size=3, unique=True))
    rows = [["well", "u", "w_star", "r"] + [f"z_{i + 1}" for i in range(n)]]
    for u in us:
        for w, r, z in draw(sequenced_wells(n, draw(st.integers(1, 12)))):
            cells = [str(v) for v in z] if r else [""] * n
            rows.append([str(len(rows) - 1), u, str(w), str(r)] + cells)
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["x", "", "2", "-1", "1.5", "nan", "inf"]))
    return "\n".join(",".join(row) for row in rows) + "\n"


@st.composite
def scenario_fields(draw, power=False):
    model = draw(st.sampled_from(["poisson", "negbin", "imperfect"]))
    doc = {
        "T": draw(st.sampled_from([0.05, 0.5, 1.0, 3.0])),
        "n_dvl": draw(st.integers(1, 4)),
        "allocation": draw(st.sampled_from(["constant", "non-constant"])),
        "levels": [
            {"u": u, "M": draw(st.integers(1, 12)), "q": draw(st.sampled_from([0.0, 0.5, 1.0]))}
            for u in draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3, unique=True))
        ],
        "model": model,
        "reps": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 1000)),
    }
    if model == "negbin":
        doc["gamma"] = draw(st.sampled_from([0.0, 0.5, 2.0]))
    if model == "imperfect":
        rate = st.sampled_from([0.5, 0.8, 1.0])
        doc["rates"] = {k: draw(rate) for k in ("sens_qvoa", "spec_qvoa", "sens_udsa", "spec_udsa")}
    if power:
        doc["gammas"] = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=2))
        return doc
    if draw(st.booleans()):
        doc["estimators"] = draw(st.lists(st.sampled_from(ESTIMATORS), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        doc["comparator"] = draw(st.sampled_from(ESTIMATORS))
    return doc


def _fewer_reps(doc):
    doc.setdefault("reps", 1)  # the default of 1000 replicates would take seconds


@st.composite
def scenario_documents(draw):
    doc = _mutate(draw, draw(scenario_fields(power=draw(st.integers(0, 3)) == 0)))
    _fewer_reps(doc)
    return json.dumps(doc)


@st.composite
def study_documents(draw, mutate=True):
    """Two named scenarios; now and then their names clash, or power and metrics scenarios mix."""
    power, mixed = draw(st.integers(0, 3)) == 0, draw(st.integers(0, 5)) == 0
    names = ["a", draw(st.sampled_from(["a", "b", "c", "d", "e"]))]
    scenarios = [{"name": nm, **draw(scenario_fields(power=pw))} for nm, pw in zip(names, [power, power != mixed])]
    if mutate:
        _mutate(draw, draw(st.sampled_from(scenarios)))
    for scenario in scenarios:
        _fewer_reps(scenario)
    return json.dumps({"scenarios": scenarios})


def run(tmp_path, name, text, args):
    path = tmp_path / name
    path.write_text(text)
    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], "--input", str(path), *args[1:]])
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
    return code, out.getvalue(), err


FIT_ARGS = [["fit"], ["fit", "--bias-correct"], ["fit", "--negbin"], ["fit", "--no-udsa", "--bias-correct"], ["lrt"]]


@FUZZ
@given(doc=summary_documents(), args=st.sampled_from(FIT_ARGS))
def test_summary_json(tmp_path_factory, doc, args):
    run(tmp_path_factory.mktemp("fuzz"), "assay.json", doc, args)


@FUZZ
@given(
    doc=wells_documents(),
    args=st.sampled_from(FIT_ARGS + [
        ["fit", "--imperfect", "--sens-qvoa", "0.9", "--spec-qvoa", "0.9", "--sens-udsa", "0.9", "--spec-udsa", "0.9"],
        ["fit", "--imperfect", "--sens-qvoa", "0.5", "--spec-qvoa", "0.5", "--sens-udsa", "1", "--spec-udsa", "1"],
    ]),
)
def test_wells_csv(tmp_path_factory, doc, args):
    run(tmp_path_factory.mktemp("fuzz"), "wells.csv", doc, args)


@FUZZ
@given(doc=st.one_of(scenario_documents(), study_documents()))
def test_scenario(tmp_path_factory, doc):
    run(tmp_path_factory.mktemp("fuzz"), "scenario.json", doc, ["simulate"])


KNOWN_KEYS = {
    "n", "levels", "u", "M", "MN", "m", "Y", "q", "T", "n_dvl", "allocation", "model", "gamma", "rates",
    "sens_qvoa", "spec_qvoa", "sens_udsa", "spec_udsa", "reps", "seed", "estimators", "comparator", "gammas",
    "scenarios", "name",
}


@st.composite
def unknown_key_documents(draw, where):
    """A well-formed document with a key that no format knows in the object ``where`` names."""
    if where.startswith("summary"):
        doc = json.loads(draw(summary_documents(mutate=False)))
        target = doc if where == "summary" else draw(st.sampled_from(doc["levels"]))
    elif where.startswith("study"):
        doc = json.loads(draw(study_documents(mutate=False)))
        # the first entry: a later one is checked only once the ones before it are
        target = doc if where == "study" else doc["scenarios"][0]
    else:
        doc = draw(scenario_fields())
        doc.setdefault("rates", dict.fromkeys(("sens_qvoa", "spec_qvoa", "sens_udsa", "spec_udsa"), 0.9))
        _fewer_reps(doc)
        target = doc if where == "scenario" else doc["rates"] if where == "rates" else draw(st.sampled_from(doc["levels"]))
    key = draw(st.text(max_size=8).filter(lambda k: k not in KNOWN_KEYS))
    target[key] = draw(JUNK)
    return json.dumps(doc), key


@pytest.mark.parametrize(
    "where", ["summary", "summary-level", "scenario", "scenario-level", "rates", "study", "study-entry"]
)
@FUZZ
@given(data=st.data())
def test_unknown_key_exits_2(tmp_path_factory, where, data):
    doc, key = data.draw(unknown_key_documents(where))
    name, args = ("assay.json", ["fit"]) if where.startswith("summary") else ("scenario.json", ["simulate"])
    code, out, err = run(tmp_path_factory.mktemp("fuzz"), name, doc, args)
    assert (code, out) == (2, "")
    assert f"unknown key {key!r}" in err
