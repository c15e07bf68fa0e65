"""Row schema and width estimation.

Rows are plain Python tuples; a :class:`Schema` names the fields, declares
their kinds and estimates the on-disk row width, from which the heap page
capacity (rows per 8 KiB page) is derived.  Dates are stored as integer
day counts (days since 1992-01-01, the start of the TPC-H calendar) for
cheap comparisons.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.db.errors import CatalogError

_EPOCH = datetime.date(1992, 1, 1)

_KIND_WIDTHS = {"int": 8, "float": 8, "date": 8}
_VALID_KINDS = {"int", "float", "str", "date"}


def date_to_days(text: str) -> int:
    """'1994-06-30' -> days since 1992-01-01 (TPC-H epoch)."""
    d = datetime.date.fromisoformat(text)
    return (d - _EPOCH).days


def days_to_date(days: int) -> str:
    """Inverse of :func:`date_to_days`."""
    return (_EPOCH + datetime.timedelta(days=days)).isoformat()


@dataclass(frozen=True)
class Column:
    """One column: a name, a kind, and a width estimate for strings."""

    name: str
    kind: str
    width: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise CatalogError(f"unknown column kind {self.kind!r}")
        if self.kind == "str" and self.width <= 0:
            raise CatalogError(f"string column {self.name!r} needs a width")

    @property
    def byte_width(self) -> int:
        return _KIND_WIDTHS.get(self.kind, self.width)


class Schema:
    """An ordered set of columns with O(1) name lookup."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise CatalogError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in {names}")
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def idx(self, name: str) -> int:
        """Position of a column; raises CatalogError if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"no column named {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def row_bytes(self) -> int:
        """Estimated bytes per row including per-row overhead."""
        return sum(c.byte_width for c in self.columns) + 24  # tuple header

    def rows_per_page(self, block_size: int) -> int:
        """How many rows fit one page (64 bytes of page header assumed)."""
        return max(1, (block_size - 64) // self.row_bytes)


def schema(*cols: tuple) -> Schema:
    """Shorthand: ``schema(("a", "int"), ("b", "str", 25))``."""
    return Schema([Column(*c) for c in cols])
