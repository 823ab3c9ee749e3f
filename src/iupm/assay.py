"""Assay data model, validation, and the external file formats.

The estimators consume immutable summary objects:

* :class:`DilutionLevelData` holds one dilution level's sufficient
  statistics: wells, negative wells, sequenced positive wells, and
  per-lineage detection counts.
* :class:`MultiDilutionAssay` aligns several levels over one shared
  viral-lineage index; it is the unit of estimation.
* :class:`WellRecord` / :class:`WellAssay` keep per-well observations,
  needed by the imperfect-assay model where summaries are not sufficient.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "AssayDataError",
    "DilutionLevelData",
    "LevelTerms",
    "MultiDilutionAssay",
    "WellRecord",
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


@dataclass(frozen=True)
class WellRecord:
    """One well's observations under possibly imperfect assays.

    ``z_star`` is present exactly when the well was sequenced (r = 1).  A
    negative QVOA reading does not force z_star to zero here: under
    imperfect assays the two tests can disagree.
    """

    w_star: int
    r: int
    z_star: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.w_star not in (0, 1) or self.r not in (0, 1):
            raise AssayDataError("w_star and r must be 0/1 indicators")
        if self.r == 1:
            if self.z_star is None:
                raise AssayDataError("a sequenced well (r=1) must carry z_star")
            z = tuple(int(v) for v in self.z_star)
            if any(v not in (0, 1) for v in z):
                raise AssayDataError("z_star entries must be 0/1 indicators")
            object.__setattr__(self, "z_star", z)
        elif self.z_star is not None:
            raise AssayDataError("an unsequenced well (r=0) must not carry z_star")


@dataclass(frozen=True)
class WellAssay:
    """Per-well data for one dilution level."""

    u: float
    wells: tuple[WellRecord, ...]
    n: int

    def __post_init__(self):
        if not (isinstance(self.u, (int, float)) and math.isfinite(self.u) and self.u > 0):
            raise AssayDataError(f"u must be a positive finite number, got {self.u!r}")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "wells", tuple(self.wells))
        object.__setattr__(self, "n", _check_count("n", self.n))
        if not self.wells:
            raise AssayDataError("a well assay needs at least one well")
        for j, rec in enumerate(self.wells):
            if rec.r == 1 and rec.w_star == 0:
                raise AssayDataError(f"well {j}: sequencing is only applied to QVOA-positive wells")
            if rec.z_star is not None and len(rec.z_star) != self.n:
                raise AssayDataError(f"well {j}: z_star has length {len(rec.z_star)}, expected {self.n}")

    @property
    def M(self) -> int:
        return len(self.wells)

    @property
    def m_star(self) -> int:
        return sum(rec.r for rec in self.wells)


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

    ``Z`` may be a full 0/1 matrix or a per-well sequence in which
    unsequenced rows are ``None``.  Counts: M_N is the number of negative
    wells, m the number of sequenced positive wells, and Y_i the number of
    sequenced wells positive for lineage i.
    """
    W = np.asarray(W, dtype=int)
    R = np.asarray(R, dtype=int)
    if W.ndim != 1 or R.shape != W.shape:
        raise AssayDataError("W and R must be equal-length 1-D indicator vectors")
    M = W.size
    rows: list[np.ndarray | None] = []
    if Z is None:
        rows = [None] * M
    else:
        if len(Z) != M:
            raise AssayDataError(f"Z has {len(Z)} rows, expected {M}")
        for row in Z:
            rows.append(None if row is None else np.asarray(row, dtype=int))
    n = n_dvl
    for row in rows:
        if row is not None:
            if n is None:
                n = row.size
            elif row.size != n:
                raise AssayDataError("inconsistent z row lengths")
    if n is None:
        n = 0
    M_N = int(np.sum(W == 0))
    m = 0
    Y = np.zeros(n, dtype=int)
    for j in range(M):
        if R[j] == 1:
            if rows[j] is None:
                raise AssayDataError(f"well {j}: sequenced (R=1) but no z row provided")
            if W[j] == 1:
                m += 1
            Y += rows[j]
    return DilutionLevelData(u=u, M=M, M_N=M_N, m=m, Y=tuple(int(y) for y in Y), q=q)


def summarize_well_assay(wa: WellAssay, q: float | None = None) -> DilutionLevelData:
    """Summaries of a per-well assay, treating the readings as error-free."""
    W = [rec.w_star for rec in wa.wells]
    R = [rec.r for rec in wa.wells]
    Z = [rec.z_star for rec in wa.wells]
    return summarize_wells(wa.u, W, Z, R, q=q, n_dvl=wa.n)


def restrict_to_detected(levels) -> MultiDilutionAssay:
    """Assemble an assay keeping only lineages detected at some level.

    Simulated or summarized data may carry all-zero lineage columns; the
    estimators operate on the detected set, and dropping a never-detected
    lineage leaves the maximum-likelihood total unchanged.
    """
    levels = list(levels)
    if not levels:
        raise AssayDataError("an assay needs at least one dilution level")
    n_full = levels[0].n
    if any(lv.n != n_full for lv in levels):
        raise AssayDataError("levels disagree on the number of lineage columns")
    pooled = np.sum([lv.y_array() for lv in levels], axis=0) if n_full else np.zeros(0)
    keep = [i for i in range(n_full) if pooled[i] >= 1]
    new_levels = tuple(
        DilutionLevelData(
            u=lv.u, M=lv.M, M_N=lv.M_N, m=lv.m, Y=tuple(lv.Y[i] for i in keep), q=lv.q
        )
        for lv in levels
    )
    return MultiDilutionAssay(new_levels, len(keep))


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
    groups: dict[float, list[WellRecord]] = {}
    order: list[float] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4 + n:
            raise AssayDataError(f"line {lineno}: expected {4 + n} cells, got {len(row)}")
        zcells = [c.strip() for c in row[4:]]
        try:
            u = float(row[1])
            w_star = int(row[2])
            r = int(row[3])
            if r == 1:
                if any(c == "" for c in zcells):
                    raise AssayDataError("sequenced well has blank z cells")
                z_star: tuple[int, ...] | None = tuple(int(c) for c in zcells)
            else:
                if any(c != "" for c in zcells):
                    raise AssayDataError("unsequenced well must leave z cells blank")
                z_star = None
            rec = WellRecord(w_star=w_star, r=r, z_star=z_star)
        except ValueError as exc:
            raise AssayDataError(f"line {lineno}: {exc}") from exc
        if u not in groups:
            groups[u] = []
            order.append(u)
        groups[u].append(rec)
    if not order:
        raise AssayDataError("wells-csv contains no well rows")
    return [WellAssay(u=u, wells=tuple(groups[u]), n=n) for u in order]


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
        for rec in wa.wells:
            zcells = list(rec.z_star) if rec.z_star is not None else [""] * n
            writer.writerow([well_id, wa.u, rec.w_star, rec.r] + zcells)
            well_id += 1
    return buf.getvalue()


def parse_assay(data: str | bytes, format: str):
    """Dispatch on format: ``summary-json`` or ``wells-csv``."""
    if format == "summary-json":
        return parse_summary_json(data)
    if format == "wells-csv":
        return parse_wells_csv(data)
    raise AssayDataError(f"unknown format {format!r}")
