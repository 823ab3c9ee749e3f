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
  parser and the simulator produce this one layout, and the imperfect
  likelihood reads it.  Its constructor is the one check of the readings,
  :func:`restrict_to_detected` the one rule for dropping lineage columns
  that no well detects, and :func:`summarize_well_assay` the one way to the
  counts of a :class:`DilutionLevelData`.

Two file formats are supported:

* ``summary-json``: ``{"n": int, "levels": [{"u": f, "M": i, "MN": i,
  "m": i, "q": f?, "Y": [i...]}]}``, checked like the scenario and study
  documents by :func:`_check`
* ``wells-csv``: header ``well,u,w_star,r,z_<dvl-id>...`` with one row per
  well; z cells are blank exactly when ``r`` is 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "AssayDataError",
    "DilutionLevelData",
    "LevelTerms",
    "MultiDilutionAssay",
    "WellAssay",
    "ErrorRates",
    "validate",
    "summarize_well_assay",
    "restrict_to_detected",
    "parse_summary_json",
    "parse_wells_csv",
    "to_summary_json",
    "wells_to_csv",
]


class AssayDataError(ValueError):
    """Raised for malformed or structurally impossible assay data."""


def _check_count(name: str, value, minimum: int = 0, maximum: int | None = None) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise AssayDataError(f"{name} must be an integer, got {value!r}")
    try:
        ivalue = int(value)
        float(ivalue)  # past the float range, a count overflows the likelihood
    except (TypeError, ValueError, OverflowError) as exc:
        raise AssayDataError(f"{name} must be an integer, got {value!r}") from exc
    if ivalue != value or ivalue < minimum:
        raise AssayDataError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and ivalue > maximum:
        raise AssayDataError(f"{name} must be an integer <= {maximum}, got {value!r}")
    return ivalue


class LevelTerms(NamedTuple):
    """Constants of the Poisson likelihood of D levels, derived from their counts.

    Rows are levels and columns lineages; one level has D = 1.  u (D, 1):
    the dilutions, so that ``u * tau`` is the (D, n) array of per-well rates.
    y (D, n): Y as floats.  pos: the entries with Y > 0, and y_pos their
    counts in row-major order; all_pos is true when that is every entry.
    cuts: each level's slice of y_pos.  neg (D, n): M_N + m - Y, the
    complete-data wells negative for each lineage.  unseq (D,): M - M_N - m,
    the positive wells left unsequenced, as floats; unseq_levels: the levels
    where that is not 0.
    """

    u: np.ndarray
    y: np.ndarray
    pos: np.ndarray
    y_pos: np.ndarray
    all_pos: bool
    cuts: tuple[slice, ...]
    neg: np.ndarray
    unseq: np.ndarray
    unseq_levels: tuple[int, ...]


def _likelihood_terms(levels) -> LevelTerms:
    """The read-only likelihood constants of ``levels``, which share one n."""
    y = np.array([lv.Y for lv in levels], dtype=float).reshape(len(levels), -1)
    pos = y > 0
    ends = np.cumsum(np.count_nonzero(pos, axis=1)).tolist()
    seq_neg = [float(lv.M_N + lv.m) for lv in levels]
    unseq = [float(lv.M - lv.M_N - lv.m) for lv in levels]
    terms = LevelTerms(
        u=np.array([[lv.u] for lv in levels]),
        y=y,
        pos=pos,
        y_pos=y[pos],
        all_pos=bool(pos.all()),
        cuts=tuple(map(slice, [0] + ends[:-1], ends)),
        neg=np.array(seq_neg)[:, None] - y,
        unseq=np.array(unseq),
        unseq_levels=tuple(d for d, x in enumerate(unseq) if x != 0.0),
    )
    for a in (terms.u, terms.y, terms.pos, terms.y_pos, terms.neg, terms.unseq):
        a.flags.writeable = False
    return terms


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
        object.__setattr__(self, "u", _check(_U, self.u, "u"))
        object.__setattr__(self, "M", _check_count("M", self.M, minimum=1))
        object.__setattr__(self, "M_N", _check_count("M_N", self.M_N))
        object.__setattr__(self, "m", _check_count("m", self.m))
        object.__setattr__(
            self, "Y", tuple(_check_count(f"Y[{i}]", y) for i, y in enumerate(self.Y))
        )
        if self.q is not None:
            object.__setattr__(self, "q", _check(_UNIT, self.q, "q"))

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

    @cached_property
    def terms(self) -> LevelTerms:
        """The likelihood constants of every level as (D, n) arrays, built on
        first use and kept with the assay.

        The cache lives in the instance ``__dict__``: equality and hashing see
        only the fields, pickling leaves it out, and the arrays are read-only
        because every evaluation shares them.
        """
        return _likelihood_terms(self.levels)

    def __getstate__(self) -> dict:
        """The pickled state: the fields alone, since the cached terms are
        rebuilt, read-only, on first use."""
        return {key: value for key, value in vars(self).items() if key != "terms"}

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
        object.__setattr__(self, "u", _check(_U, self.u, "u"))
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
            value = _check(_Number(), getattr(self, name), name)
            object.__setattr__(self, name, _check(_UNIT, value, name))

    def check_identifiable(self):
        """Fits require sens + spec > 1 for both assays."""
        if self.sens_qvoa + self.spec_qvoa <= 1.0:
            raise AssayDataError("QVOA sensitivity + specificity must exceed 1 for an identifiable fit")
        if self.sens_udsa + self.spec_udsa <= 1.0:
            raise AssayDataError("UDSA sensitivity + specificity must exceed 1 for an identifiable fit")


def _never_detected(assay: MultiDilutionAssay) -> list[str]:
    """One message for each lineage that no sequenced well of any level detects."""
    return [
        f"lineage {i}: never detected (sum of Y across levels is 0)"
        for i, counts in enumerate(zip(*(lv.Y for lv in assay.levels)))
        if not any(counts)
    ]


def validate(assay: MultiDilutionAssay) -> None:
    """Check the relational invariants of an assay.

    Constructors already reject impossible shapes and negative counts; this
    checks the cross-field constraints and raises one AssayDataError that
    lists every violation, joined by "; ", rather than stopping at the first.
    """
    violations = []
    for d, lv in enumerate(assay.levels):
        tag = f"level {d}"
        if lv.M_N > lv.M:
            violations.append(f"{tag}: M_N > M ({lv.M_N} > {lv.M})")
            continue
        if lv.m > lv.M_P:
            violations.append(f"{tag}: m > M_P ({lv.m} > {lv.M_P})")
        for i, y in enumerate(lv.Y):
            if y > lv.m:
                violations.append(f"{tag}: Y[{i}] > m ({y} > {lv.m})")
        if lv.m > 0 and sum(lv.Y) < lv.m:
            violations.append(
                f"{tag}: sum(Y) < m ({sum(lv.Y)} < {lv.m}); every sequenced positive well "
                "must carry at least one lineage"
            )
        if lv.m == 0 and any(lv.Y):
            violations.append(f"{tag}: nonzero Y with m = 0")
        if lv.q == 0.0 and lv.m > 0:
            violations.append(f"{tag}: q = 0 but m = {lv.m} wells were sequenced")
    us = [lv.u for lv in assay.levels]
    if len(set(us)) != len(us):
        violations.append("dilution levels u must be distinct")
    violations += _never_detected(assay)
    if violations:
        raise AssayDataError("; ".join(violations))


def summarize_well_assay(wa: WellAssay, q: float | None = None) -> DilutionLevelData:
    """The sufficient statistics of one level's readings, treated as error-free.

    M_N = M - sum(w*) negative wells, m = sum(r) sequenced wells, and
    Y = r @ z*, each lineage's count of sequenced wells that detect it.
    """
    Y = (wa.r @ wa.z_star).tolist()
    return DilutionLevelData(u=wa.u, M=wa.M, M_N=wa.M - int(wa.w_star.sum()), m=wa.m_star, Y=tuple(Y), q=q)


def restrict_to_detected(wells) -> list[WellAssay]:
    """The levels with only the lineage columns that some sequenced well detects.

    Simulated or recorded wells may carry lineage columns that no well
    detects; the estimators operate on the detected set, and dropping a
    never-detected lineage leaves the maximum-likelihood total unchanged.
    When every column is detected the levels are returned as given.
    """
    wells = list(wells)
    if not wells:
        raise AssayDataError("an assay needs at least one dilution level")
    if any(wa.n != wells[0].n for wa in wells):
        raise AssayDataError("levels disagree on the number of lineage columns")
    detected = np.any([wa.z_star.any(axis=0) for wa in wells], axis=0)
    if detected.all():
        return wells
    return [WellAssay(wa.u, wa.w_star, wa.r, wa.z_star[:, detected], wa.labels) for wa in wells]


# ---------------------------------------------------------------------------
# summary-json


def _too_long() -> str:
    return f"a number of more than {sys.get_int_max_str_digits()} digits is too long"


def _decode(data: str | bytes) -> str:
    """Input as text: bytes are UTF-8, and a leading byte-order mark is dropped."""
    if isinstance(data, bytes):
        return data.decode("utf-8-sig")
    return data.removeprefix("\ufeff")


def _load_json(text: str | bytes, what: str = "JSON"):
    """The document in ``text``; a JSON or number error becomes AssayDataError."""
    try:
        return json.loads(_decode(text))
    except json.JSONDecodeError as exc:
        raise AssayDataError(f"malformed {what}: {exc}") from exc
    except ValueError:  # an integer literal past the integer-string limit
        raise AssayDataError(f"malformed {what}: {_too_long()}") from None


# The kinds of value in a JSON document.  ``default`` is an absent key's value (_REQUIRED:
# the key must be given); ``must`` says what a value must be, and ``test`` checks it.
_REQUIRED = object()


class _Count(NamedTuple):  # an integer in [minimum, maximum], also when written as 2.0
    minimum: int = 0
    default: object = _REQUIRED
    maximum: int | None = None


class _Number(NamedTuple):  # a float, not a boolean
    default: object = _REQUIRED
    must: str = "be a number"
    test: Callable[[float], bool] = lambda x: True


class _Str(NamedTuple):
    default: object = _REQUIRED
    must: str = "be a string"
    test: Callable[[str], bool] = lambda s: True


class _List(NamedTuple):  # ``what`` names the items in messages
    item: object
    what: str
    non_empty: bool = False
    default: object = _REQUIRED


class _Object(NamedTuple):  # each key's kind; None leaves the keys unchecked
    keys: dict | None
    default: object = _REQUIRED


def _check(kind, value, path: str = ""):
    """``value`` checked against ``kind``, as plain values with the defaults of absent keys filled in.

    ``path`` names the value in messages, as in ``levels[0].u``.  An object
    refuses unknown keys; an optional key whose default is None may be null.
    """
    if isinstance(kind, _Object):
        if not isinstance(value, dict):
            required = ", ".join(key for key, sub in (kind.keys or {}).items() if sub.default is _REQUIRED)
            raise AssayDataError(f"{path or 'the document'} must be an object{required and ' with '}{required}, got {value!r}")
        if kind.keys is None:
            return value
        where = f"{path}: " if path else ""
        unknown = [key for key in value if key not in kind.keys]
        if unknown:
            raise AssayDataError(f"{where}unknown key {unknown[0]!r}")
        checked = {}
        for key, sub in kind.keys.items():
            if key not in value or (value[key] is None and sub.default is None):
                if sub.default is _REQUIRED:
                    raise AssayDataError(f"{where}missing field {key!r}")
                checked[key] = sub.default
            else:
                checked[key] = _check(sub, value[key], f"{path}.{key}" if path else key)
        return checked
    if isinstance(kind, _List):
        if not (isinstance(value, list) and (value or not kind.non_empty)):
            raise AssayDataError(f"{path} must be a {'non-empty ' * kind.non_empty}list of {kind.what}, got {value!r}")
        return [_check(kind.item, item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, _Count):
        return _check_count(path, value, kind.minimum, kind.maximum)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        x = float(value) if number and isinstance(kind, _Number) else value
    except OverflowError:  # an integer past the float range
        x = None
    if not (isinstance(x, float if isinstance(kind, _Number) else str) and kind.test(x)):
        raise AssayDataError(f"{path} must {kind.must}, got {value!r}")
    return x


_U = _Number(must="be a positive finite number", test=lambda u: 0 < u < math.inf)
_UNIT = _Number(default=None, must="lie in [0, 1]", test=lambda x: 0 <= x <= 1)
# The expected information sums over a window of about 2 sqrt(380 M) well
# counts: at most some 1.2 million counts, 10 MB an array, up to this M.
MAX_WELLS = 10**9
_SUMMARY = _Object({
    "n": _Count(),
    "levels": _List(_Object({
        "u": _U, "M": _Count(1, maximum=MAX_WELLS), "MN": _Count(), "m": _Count(), "Y": _List(_Count(), "counts", default=()), "q": _UNIT,
    }), "{u, M, MN, m} objects", non_empty=True),
})


def parse_summary_json(text: str | bytes) -> MultiDilutionAssay:
    doc = _check(_SUMMARY, _load_json(text))
    levels = tuple(DilutionLevelData(lv["u"], lv["M"], lv["MN"], lv["m"], lv["Y"], lv["q"]) for lv in doc["levels"])
    assay = MultiDilutionAssay(levels, doc["n"])
    validate(assay)
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
    Well ids must be unique across the file.  A row's layout is checked as it
    is read; then ``WellAssay`` checks each level in turn, naming the first
    well that fails the first of its checks that any well fails.
    """
    reader = csv.reader(io.StringIO(_decode(text)))
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
            w_star = _int_cell(row[2])
            r = _int_cell(row[3])
            if r == 1:
                if any(c == "" for c in zcells):
                    raise AssayDataError("sequenced well has blank z cells")
                z_star = [_int_cell(c) for c in zcells]
            else:
                if any(c != "" for c in zcells):
                    raise AssayDataError("unsequenced well must leave z cells blank")
                z_star = [0] * n
        except ValueError as exc:
            raise AssayDataError(f"line {lineno}: {exc}") from exc
        groups.setdefault(u, []).append([w_star, r, *z_star])
        labels.setdefault(u, []).append(f"well {well!r} on line {lineno}")
    if not groups:
        raise AssayDataError("wells-csv contains no well rows")
    # No dtype: an integer past int64 must reach WellAssay's 0/1 check, not overflow here.
    levels = [(u, np.array(rows)) for u, rows in groups.items()]
    return [WellAssay(u, rows[:, 0], rows[:, 1], rows[:, 2:], labels[u]) for u, rows in levels]


def _int_cell(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        if len(cell.strip()) > sys.get_int_max_str_digits() > 0:
            raise ValueError(_too_long()) from None
        raise


def wells_to_csv(assays) -> str:
    """Levels as one wells-csv, with wells numbered from 0 and lineages z_1..z_n."""
    assays = list(assays)
    if not assays:
        raise AssayDataError("nothing to serialize")
    n = assays[0].n
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["well", "u", "w_star", "r"] + [f"z_{i + 1}" for i in range(n)])
    well_id = 0
    for wa in assays:
        for w_star, r, z_star in zip(wa.w_star.tolist(), wa.r.tolist(), wa.z_star.tolist()):
            writer.writerow([well_id, wa.u, w_star, r] + (z_star if r else [""] * n))
            well_id += 1
    return buf.getvalue()

