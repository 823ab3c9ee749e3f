"""Assay data model, validation, and the external file formats.

The estimators consume immutable summary objects:

* :class:`DilutionLevelData` holds one dilution level's sufficient
  statistics: wells, negative wells, sequenced positive wells, and
  per-lineage detection counts.
* :class:`MultiDilutionAssay` aligns several levels over one shared
  viral-lineage index; it is the unit of estimation.
* :class:`WellAssay` keeps one level's per-well observations, needed by the
  imperfect-assay model where summaries are not sufficient.  It holds three
  read-only integer arrays over the level's M wells and n lineage columns:
  ``w_star`` (M,) the QVOA readings, ``r`` (M,) the sequenced wells, and
  ``z_star`` (M, n) the UDSA readings, zero in unsequenced rows.  The CSV
  parser, the simulator, the summaries and the imperfect likelihood all
  use this one layout.

Two file formats are supported:

* ``summary-json``: ``{"n": int, "levels": [{"u": f, "M": i, "MN": i,
  "m": i, "q": f?, "Y": [i...]}]}``
* ``wells-csv``: header ``well,u,w_star,r,z_<dvl-id>...`` with one row per
  well; z cells are blank exactly when ``r`` is 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "AssayDataError",
    "DilutionLevelData",
    "LevelTerms",
    "MultiDilutionAssay",
    "WellAssay",
    "ErrorRates",
    "ValidationReport",
    "validate",
    "summarize_wells",
    "summarize_well_assay",
    "restrict_to_detected",
    "parse_assay",
    "parse_summary_json",
    "parse_wells_csv",
    "to_summary_json",
    "wells_to_csv",
]


class AssayDataError(ValueError):
    """Raised for malformed or structurally impossible assay data."""


def _check_count(name: str, value, minimum: int = 0) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise AssayDataError(f"{name} must be an integer, got {value!r}")
    try:
        ivalue = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AssayDataError(f"{name} must be an integer, got {value!r}") from exc
    if ivalue != value or ivalue < minimum:
        raise AssayDataError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return ivalue


class LevelTerms(NamedTuple):
    """Constants of one level's Poisson likelihood, derived from its counts.

    y: Y as floats.  pos / y_pos: the lineages with Y_i > 0 and their counts;
    all_pos is true when that is every lineage.  neg: M_N + m - Y_i, the
    complete-data wells negative for lineage i.  unseq: M - M_N - m, the
    positive wells left unsequenced.
    """

    y: np.ndarray
    pos: np.ndarray
    y_pos: np.ndarray
    all_pos: bool
    neg: np.ndarray
    unseq: int


@dataclass(frozen=True)
class DilutionLevelData:
    """Summary of a single dilution level.

    u: cells per well, in millions.
    M / M_N / m: replicate wells, negative wells, sequenced positive wells.
    Y: per-lineage counts of sequenced wells positive for that lineage.
    q: design fraction of positive wells to sequence; when not recorded it
       is recovered as m / M_P (0 when there were no positive wells).
    """

    u: float
    M: int
    M_N: int
    m: int
    Y: tuple[int, ...] = ()
    q: float | None = None

    def __post_init__(self):
        if not (isinstance(self.u, (int, float)) and math.isfinite(self.u) and self.u > 0):
            raise AssayDataError(f"u must be a positive finite number, got {self.u!r}")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "M", _check_count("M", self.M, minimum=1))
        object.__setattr__(self, "M_N", _check_count("M_N", self.M_N))
        object.__setattr__(self, "m", _check_count("m", self.m))
        object.__setattr__(
            self, "Y", tuple(_check_count(f"Y[{i}]", y) for i, y in enumerate(self.Y))
        )
        if self.q is not None:
            if not (isinstance(self.q, (int, float)) and 0.0 <= self.q <= 1.0):
                raise AssayDataError(f"q must lie in [0, 1], got {self.q!r}")
            object.__setattr__(self, "q", float(self.q))

    @property
    def M_P(self) -> int:
        return self.M - self.M_N

    @property
    def n(self) -> int:
        return len(self.Y)

    @property
    def q_effective(self) -> float:
        if self.q is not None:
            return self.q
        return self.m / self.M_P if self.M_P > 0 else 0.0

    def y_array(self) -> np.ndarray:
        return np.asarray(self.Y, dtype=float)

    @cached_property
    def terms(self) -> LevelTerms:
        """The likelihood constants, built on first use and kept with the level.

        The cache lives in the instance ``__dict__``: equality and hashing see
        only the fields, and the arrays are read-only because every
        evaluation shares them.
        """
        y = self.y_array()
        pos = y > 0
        seq_neg = self.M_N + self.m
        terms = LevelTerms(
            y=y, pos=pos, y_pos=y[pos], all_pos=bool(pos.all()), neg=seq_neg - y, unseq=self.M - seq_neg
        )
        for a in (terms.y, terms.pos, terms.y_pos, terms.neg):
            a.flags.writeable = False
        return terms


@dataclass(frozen=True)
class MultiDilutionAssay:
    """D dilution levels sharing one detected-lineage index set."""

    levels: tuple[DilutionLevelData, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise AssayDataError("an assay needs at least one dilution level")
        object.__setattr__(self, "n", _check_count("n", self.n))
        for d, level in enumerate(self.levels):
            if level.n != self.n:
                raise AssayDataError(
                    f"level {d}: Y has length {level.n}, expected n={self.n} "
                    "(lineage columns must be aligned across levels)"
                )

    @property
    def D(self) -> int:
        return len(self.levels)

    def strip_udsa(self) -> "MultiDilutionAssay":
        """Drop all sequencing information, keeping the well counts only."""
        stripped = tuple(
            DilutionLevelData(u=lv.u, M=lv.M, M_N=lv.M_N, m=0, Y=(), q=0.0)
            for lv in self.levels
        )
        return MultiDilutionAssay(stripped, 0)

    def pooled_y(self) -> np.ndarray:
        return np.sum([lv.y_array() for lv in self.levels], axis=0) if self.n else np.zeros(0)


def _index_name(j: int) -> str:
    return f"well {j}"


def _reject_first_well(bad: np.ndarray, message: str, well_name=_index_name):
    if bad.any():
        raise AssayDataError(f"{well_name(int(np.argmax(bad)))}: {message}")


def _is_indicator(a: np.ndarray) -> np.ndarray:
    return (a == 0) | (a == 1)


@dataclass(frozen=True, eq=False)
class WellAssay:
    """Per-well readings of one dilution level, as read-only integer arrays.

    w_star (M,): the observed QVOA outgrowth.  r (M,): 1 for a sequenced well;
    only QVOA-positive wells are sequenced.  z_star (M, n): the observed
    lineage detections, zero in the rows of unsequenced wells.  A sequenced
    row may be all zero: under imperfect assays the two tests can disagree.
    labels (M,), optional: how error messages name each well, such as its
    id and line in a wells-csv; without them a well is named by its index
    within the level.  Labels take no part in equality.
    """

    u: float
    w_star: np.ndarray
    r: np.ndarray
    z_star: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.u, (int, float)) and math.isfinite(self.u) and self.u > 0):
            raise AssayDataError(f"u must be a positive finite number, got {self.u!r}")
        object.__setattr__(self, "u", float(self.u))
        names = ("w_star", "r", "z_star")
        try:
            w, r, z = (np.array(getattr(self, name)) for name in names)
        except ValueError as exc:
            raise AssayDataError(f"w_star, r and z_star must be rectangular arrays: {exc}") from None
        if not (w.ndim == 1 and r.shape == w.shape and z.ndim == 2 and len(z) == w.size):
            raise AssayDataError(f"w_star and r need shape (M,) and z_star (M, n), got {w.shape}, {r.shape}, {z.shape}")
        if not w.size:
            raise AssayDataError("a well assay needs at least one well")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != w.size:
                raise AssayDataError(f"labels need one entry per well, got {len(self.labels)} for {w.size} wells")
        name = self.well_name
        _reject_first_well(~(_is_indicator(w) & _is_indicator(r)), "w_star and r must be 0/1 indicators", name)
        _reject_first_well(~_is_indicator(z).all(axis=1), "z_star entries must be 0/1 indicators", name)
        _reject_first_well((r == 1) & (w == 0), "sequencing is only applied to QVOA-positive wells", name)
        _reject_first_well((r == 0) & z.any(axis=1), "an unsequenced well (r=0) must not carry z_star", name)
        for name, a in zip(names, (w, r, z)):
            a = a.astype(int)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, WellAssay):
            return NotImplemented
        return self.u == other.u and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("w_star", "r", "z_star")
        )

    @property
    def M(self) -> int:
        return self.r.size

    @property
    def n(self) -> int:
        return self.z_star.shape[1]

    @property
    def m_star(self) -> int:
        return int(self.r.sum())

    def well_name(self, j: int) -> str:
        """How messages name well j of this level."""
        return self.labels[j] if self.labels is not None else _index_name(j)


@dataclass(frozen=True)
class ErrorRates:
    """Sensitivity and specificity of the QVOA and UDSA assays."""

    sens_qvoa: float
    spec_qvoa: float
    sens_udsa: float
    spec_udsa: float

    def __post_init__(self):
        for name in ("sens_qvoa", "spec_qvoa", "sens_udsa", "spec_udsa"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise AssayDataError(f"{name} must be a number, got {value!r}")
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise AssayDataError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def perfect(self) -> bool:
        return self.sens_qvoa == self.spec_qvoa == self.sens_udsa == self.spec_udsa == 1.0

    def check_identifiable(self):
        """Fits require sens + spec > 1 for both assays."""
        if self.sens_qvoa + self.spec_qvoa <= 1.0:
            raise AssayDataError("QVOA sensitivity + specificity must exceed 1 for an identifiable fit")
        if self.sens_udsa + self.spec_udsa <= 1.0:
            raise AssayDataError("UDSA sensitivity + specificity must exceed 1 for an identifiable fit")


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def validate(assay: MultiDilutionAssay) -> ValidationReport:
    """Report-style check of the relational invariants of an assay.

    Constructors already reject impossible shapes and negative counts; this
    checks the cross-field constraints and returns them all at once rather
    than raising on the first.
    """
    report = ValidationReport()
    for d, lv in enumerate(assay.levels):
        tag = f"level {d}"
        if lv.M_N > lv.M:
            report.violations.append(f"{tag}: M_N > M ({lv.M_N} > {lv.M})")
            continue
        if lv.m > lv.M_P:
            report.violations.append(f"{tag}: m > M_P ({lv.m} > {lv.M_P})")
        for i, y in enumerate(lv.Y):
            if y > lv.m:
                report.violations.append(f"{tag}: Y[{i}] > m ({y} > {lv.m})")
        if lv.m > 0 and sum(lv.Y) < lv.m:
            report.violations.append(
                f"{tag}: sum(Y) < m ({sum(lv.Y)} < {lv.m}); every sequenced positive well "
                "must carry at least one lineage"
            )
        if lv.m == 0 and any(lv.Y):
            report.violations.append(f"{tag}: nonzero Y with m = 0")
        if lv.q == 0.0 and lv.m > 0:
            report.violations.append(f"{tag}: q = 0 but m = {lv.m} wells were sequenced")
    us = [lv.u for lv in assay.levels]
    if len(set(us)) != len(us):
        report.violations.append("dilution levels u must be distinct")
    if assay.n > 0:
        pooled = assay.pooled_y()
        for i in np.flatnonzero(pooled < 1):
            report.violations.append(
                f"lineage {int(i)}: never detected (sum of Y across levels is 0)"
            )
    return report


def summarize_wells(u, W, Z, R, q: float | None = None, n_dvl: int | None = None) -> DilutionLevelData:
    """Collapse per-well indicators to the sufficient statistics.

    ``W`` and ``R`` are length-M 0/1 vectors: QVOA-positive and sequenced
    wells.  ``Z`` is an (M, n) 0/1 matrix whose unsequenced rows are ignored,
    or None when no well was sequenced (n is then ``n_dvl``, default 0).
    Counts: M_N = M - sum(W) negative wells, m = sum(R) sequenced positive
    wells, and Y = the column sums of Z over the sequenced rows.
    """
    W = np.asarray(W, dtype=int)
    R = np.asarray(R, dtype=int)
    if W.ndim != 1 or R.shape != W.shape:
        raise AssayDataError("W and R must be equal-length 1-D indicator vectors")
    _reject_first_well(~(_is_indicator(W) & _is_indicator(R)), "W and R must be 0/1 indicators")
    _reject_first_well((R == 1) & (W == 0), "sequencing is only applied to QVOA-positive wells")
    if Z is None:
        _reject_first_well(R == 1, "sequenced (R=1) but no z row provided")
        Z = np.zeros((W.size, n_dvl or 0), dtype=int)
    try:
        Z = np.asarray(Z, dtype=int)
    except (TypeError, ValueError) as exc:
        raise AssayDataError(f"Z must be an (M, n) 0/1 matrix: {exc}") from None
    if Z.ndim != 2 or len(Z) != W.size or n_dvl not in (None, Z.shape[1]):
        raise AssayDataError(f"Z must have {W.size} rows of {n_dvl or 'n'} lineage columns, got shape {Z.shape}")
    M, Y = W.size, (R @ Z).tolist()
    return DilutionLevelData(u=u, M=M, M_N=M - int(W.sum()), m=int(R.sum()), Y=tuple(Y), q=q)


def summarize_well_assay(wa: WellAssay, q: float | None = None) -> DilutionLevelData:
    """Summaries of a per-well assay, treating the readings as error-free."""
    return summarize_wells(wa.u, wa.w_star, wa.z_star, wa.r, q=q)


def detected_lineages(levels) -> list[int]:
    """Indices of the lineage columns that some level detects (pooled Y >= 1)."""
    if not levels:
        raise AssayDataError("an assay needs at least one dilution level")
    n_full = levels[0].n
    if any(lv.n != n_full for lv in levels):
        raise AssayDataError("levels disagree on the number of lineage columns")
    pooled = np.sum([lv.y_array() for lv in levels], axis=0) if n_full else np.zeros(0)
    return np.flatnonzero(pooled >= 1).tolist()


def select_lineages(levels, keep: list[int]) -> MultiDilutionAssay:
    """Assemble an assay from the given lineage columns of each level."""
    return MultiDilutionAssay(tuple(replace(lv, Y=tuple(lv.Y[i] for i in keep)) for lv in levels), len(keep))


def restrict_to_detected(levels) -> MultiDilutionAssay:
    """Assemble an assay keeping only lineages detected at some level.

    Simulated or summarized data may carry all-zero lineage columns; the
    estimators operate on the detected set, and dropping a never-detected
    lineage leaves the maximum-likelihood total unchanged.
    """
    levels = list(levels)
    return select_lineages(levels, detected_lineages(levels))


# ---------------------------------------------------------------------------
# summary-json


def parse_summary_json(text: str | bytes) -> MultiDilutionAssay:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssayDataError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "levels" not in doc:
        raise AssayDataError('summary-json must be an object with "n" and "levels"')
    if not isinstance(doc["levels"], list) or not doc["levels"]:
        raise AssayDataError('summary-json "levels" must be a non-empty list')
    levels = []
    for d, lv in enumerate(doc["levels"]):
        if not isinstance(lv, dict):
            raise AssayDataError(f"level {d}: must be an object, got {lv!r}")
        try:
            levels.append(
                DilutionLevelData(
                    u=lv["u"],
                    M=lv["M"],
                    M_N=lv["MN"],
                    m=lv["m"],
                    Y=tuple(lv.get("Y", ())),
                    q=lv.get("q"),
                )
            )
        except KeyError as exc:
            raise AssayDataError(f"level {d}: missing field {exc}") from exc
        except TypeError as exc:
            raise AssayDataError(f"level {d}: {exc}") from exc
    assay = MultiDilutionAssay(tuple(levels), doc["n"])
    report = validate(assay)
    if not report.ok:
        raise AssayDataError(str(report))
    return assay


def to_summary_json(assay: MultiDilutionAssay) -> str:
    levels = []
    for lv in assay.levels:
        entry = {"u": lv.u, "M": lv.M, "MN": lv.M_N, "m": lv.m, "Y": list(lv.Y)}
        if lv.q is not None:
            entry["q"] = lv.q
        levels.append(entry)
    return json.dumps({"n": assay.n, "levels": levels}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# wells-csv


def parse_wells_csv(text: str | bytes) -> list[WellAssay]:
    """Parse per-well data; returns one WellAssay per dilution level.

    Levels are ordered by first appearance of their u value; lineage columns
    are identified by the ``z_<id>`` header names and shared by all levels.
    Well ids must be unique across the file.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise AssayDataError("empty wells-csv input") from None
    header = [h.strip() for h in header]
    if header[:4] != ["well", "u", "w_star", "r"]:
        raise AssayDataError("wells-csv header must start with well,u,w_star,r")
    z_cols = header[4:]
    if any(not c.startswith("z_") for c in z_cols):
        raise AssayDataError("lineage columns must be named z_<dvl-id>")
    if len(set(z_cols)) != len(z_cols):
        raise AssayDataError("duplicate lineage column names")
    n = len(z_cols)
    groups: dict[float, list[list[int]]] = {}
    labels: dict[float, list[str]] = {}
    first_line: dict[str, int] = {}
    end = reader.line_num
    for row in reader:
        # A quoted cell may span lines: a row starts on the line after the last one's end.
        lineno, end = end + 1, reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4 + n:
            raise AssayDataError(f"line {lineno}: expected {4 + n} cells, got {len(row)}")
        well = row[0].strip()
        if well in first_line:
            raise AssayDataError(
                f"line {lineno}: well id {well!r} repeats the id on line {first_line[well]}"
            )
        first_line[well] = lineno
        zcells = [c.strip() for c in row[4:]]
        try:
            u = float(row[1])
            w_star = int(row[2])
            r = int(row[3])
            if r == 1:
                if any(c == "" for c in zcells):
                    raise AssayDataError("sequenced well has blank z cells")
                z_star = [int(c) for c in zcells]
            else:
                if any(c != "" for c in zcells):
                    raise AssayDataError("unsequenced well must leave z cells blank")
                z_star = [0] * n
            if w_star not in (0, 1) or r not in (0, 1):
                raise AssayDataError("w_star and r must be 0/1 indicators")
            if any(v not in (0, 1) for v in z_star):
                raise AssayDataError("z_star entries must be 0/1 indicators")
        except ValueError as exc:
            raise AssayDataError(f"line {lineno}: {exc}") from exc
        groups.setdefault(u, []).append([w_star, r, *z_star])
        labels.setdefault(u, []).append(f"well {well!r} on line {lineno}")
    if not groups:
        raise AssayDataError("wells-csv contains no well rows")
    levels = [(u, np.array(rows, dtype=int)) for u, rows in groups.items()]
    return [WellAssay(u, rows[:, 0], rows[:, 1], rows[:, 2:], labels[u]) for u, rows in levels]


def wells_to_csv(assays, dvl_ids=None) -> str:
    assays = list(assays)
    if not assays:
        raise AssayDataError("nothing to serialize")
    n = assays[0].n
    if dvl_ids is None:
        dvl_ids = [str(i + 1) for i in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["well", "u", "w_star", "r"] + [f"z_{d}" for d in dvl_ids])
    well_id = 0
    for wa in assays:
        for w_star, r, z_star in zip(wa.w_star.tolist(), wa.r.tolist(), wa.z_star.tolist()):
            writer.writerow([well_id, wa.u, w_star, r] + (z_star if r else [""] * n))
            well_id += 1
    return buf.getvalue()


def parse_assay(data: str | bytes, format: str):
    """Dispatch on format: ``summary-json`` or ``wells-csv``."""
    if format == "summary-json":
        return parse_summary_json(data)
    if format == "wells-csv":
        return parse_wells_csv(data)
    raise AssayDataError(f"unknown format {format!r}")
