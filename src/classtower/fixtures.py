"""Embedded numeric fixtures and the row-by-row verification harness.

The fixture file (data/fixtures_v1.json) stores the transcribed invariant
tables: one array per source table, rows carrying the printed values, class
group tuples as printed (full groups).  Only 2-parts of class groups are
compared; every other printed column (symbols, exponents, discriminant,
coclass) is compared exactly.  Table-level caption constants (legendre, pi,
m) are merged into each row at load time.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .abelian import AbelianType
from .classify import classify_pair
from .quadratic import field_discriminant, two_part_of_class_group

__all__ = ["FixtureRow", "ColumnResult", "RowResult", "load_fixtures", "verify_fixtures"]

ENV_FIXTURE_PATH = "CLASSTOWER_FIXTURES"

_CAPTION_KEYS = ("legendre", "pi", "m")


class FixtureRow(NamedTuple("FixtureRow", [("table", str), ("d", int), ("p1", int), ("p2", int),
                                             ("values", dict), ("class_groups", dict)])):
    """One printed row: values holds the scalar columns (q, legendre, pi, b, m, n, disc,
    coclass), class_groups the printed tuples by column (cl_k0, cl_k0bar, cl_kk, cl_K1..7,
    cl_L1..7)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, table: str, d: int, p1: int, p2: int, values: dict,
                class_groups: dict) -> "FixtureRow":
        # only 2-parts are compared (_two_part_str), so no printed order is factorized
        for f in (f for tup in class_groups.values() for f in tup):
            if f < 1:
                raise ValueError(f"cyclic orders must be >= 1, got {f}")
        # the order check passes a 2.5 or True, scalars compare as text, sqrt_mod needs int primes
        bad = [x for x in (d, p1, p2, *values.values(),
                           *(x for t in class_groups.values() for x in t)) if type(x) is not int]
        if bad:
            raise ValueError(f"fixture row {table}/{d}: printed value {bad[0]!r} "
                             "is not an integer")
        if d != 2 * p1 * p2:
            raise ValueError(f"fixture row {table}/{d}: d != 2*p1*p2")
        return super().__new__(cls, table, d, p1, p2, values, class_groups)


def _row_from_json(table: str, raw: dict, caption: dict) -> FixtureRow:
    values = {k: v for k, v in raw.items() if k in ("q", "legendre", "pi", "b", "m", "n", "disc", "coclass")}
    for key, val in caption.items():
        values.setdefault(key, val)
    class_groups = {key: tuple(raw[key]) for key in ("cl_k0", "cl_k0bar", "cl_kk") if key in raw}
    for key in ("cl_K", "cl_L"):  # the file holds the 7 fields' tuples as one array
        if len(raw.get(key, ())) > 7:
            raise ValueError(f"{key} holds {len(raw[key])} tuples, more than the 7 fields")
        for j, tup in enumerate(raw.get(key, ()), start=1):
            class_groups[f"{key}{j}"] = tuple(tup)
    return FixtureRow(
        table=table,
        d=raw["d"],
        p1=raw["p1"],
        p2=raw["p2"],
        values=values,
        class_groups=class_groups,
    )


def load_fixtures() -> dict[str, list[FixtureRow]]:
    """The tables of the file CLASSTOWER_FIXTURES names, else of the embedded corpus."""
    return _load_fixtures_cached(os.environ.get(ENV_FIXTURE_PATH))


@lru_cache(maxsize=None)
def _load_fixtures_cached(path: str | None) -> dict[str, list[FixtureRow]]:
    if path is None:
        text = resources.files("classtower").joinpath("data/fixtures_v1.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the fixture document is not a JSON object")
    if doc.get("version") != "fixtures_v1":
        raise ValueError(f"unsupported fixture version: {doc.get('version')!r}")
    if not isinstance(doc.get("tables"), dict):
        raise ValueError("the fixture document has no 'tables' object")
    out: dict[str, list[FixtureRow]] = {}
    for table, body in doc["tables"].items():
        if not isinstance(body, dict) or not isinstance(body.get("rows"), list):
            raise ValueError(f"fixture table {table!r} has no 'rows' list")
        caption = {k: body[k] for k in _CAPTION_KEYS if k in body}
        out[table] = []
        for i, raw in enumerate(body["rows"]):
            try:
                out[table].append(_row_from_json(table, raw, caption))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"fixture table {table!r}, row {i}: "
                                 f"{type(exc).__name__}: {exc}") from None
    return out


class ColumnResult(NamedTuple):
    column: str
    ok: bool
    expected: str
    computed: str
    printed: str = ""  # the verbatim printed value, for audit (class-group columns)


class RowResult(NamedTuple):
    table: str
    d: int
    p1: int
    p2: int
    columns: tuple[ColumnResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.columns)

    def failures(self) -> list[ColumnResult]:
        return [c for c in self.columns if not c.ok]


def _two_part_str(tup) -> str:
    return str(AbelianType.from_factors(f & -f for f in tup))


def verify_row(row: FixtureRow) -> RowResult:
    """Compare every checkable printed column of one row against computed values."""
    record, report, validation = classify_pair(row.p1, row.p2)
    cols: list[ColumnResult] = []

    def add(name, expected, computed, printed=""):
        cols.append(ColumnResult(name, str(expected) == str(computed), str(expected), str(computed),
                                 str(printed)))

    computed_scalars = {**record.profile()._asdict(), "b": record.B, "disc": record.disc,
                        "coclass": report.coclass}
    for key, printed in sorted(row.values.items()):
        add(key, printed, computed_scalars[key])
    computed_cl2 = {"cl_kk": "(2, 2, 2)"}
    for kind, fields in (("K", report.k_fields), ("L", report.l_fields)):
        computed_cl2.update((f"cl_{kind}{j}", field.cl2) for j, field in fields.items())
    for column, printed in row.class_groups.items():
        if column in ("cl_k0", "cl_k0bar"):  # the oracle, for Q(sqrt(d)) and Q(sqrt(-d))
            d = -row.d if column == "cl_k0bar" else row.d
            got = two_part_of_class_group(field_discriminant(d))
        else:
            got = computed_cl2[column]
        add(column, _two_part_str(printed), got, printed)
    add("cross_validation", True, validation.passed)
    return RowResult(row.table, row.d, row.p1, row.p2, tuple(cols))


def verify_fixtures(table: str | None = None, filter_d: int | None = None) -> list[RowResult]:
    fixtures = load_fixtures()
    if table is not None:
        if table not in fixtures:
            raise ValueError(f"unknown fixture table {table!r}; have {sorted(fixtures)}")
        fixtures = {table: fixtures[table]}
    results = []
    for name in sorted(fixtures, key=lambda t: (len(t), t)):
        for row in fixtures[name]:
            if filter_d is not None and row.d != filter_d:
                continue
            results.append(verify_row(row))
    return results
