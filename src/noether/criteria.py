"""Elementary non-rationality criteria and the published reference table.

Two congruence-and-squarefree tests decide non-rationality for primes of
the shapes p = 2q+1 and p = 8q+1 without any norm-equation work.  The
package also ships one reference table, classification.txt, with a row
for each prime below 20000.  The known-rational, undetermined and
GRH-conditional sets of the paper are its RATIONAL rows, its UNDETERMINED
rows and its rows flagged GRH; the loader checks their sizes.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import Union

from .arith import is_square, is_squarefree, primes_below

__all__ = [
    "em_criterion_i",
    "em_criterion_ii",
    "em_tables",
    "load_fixtures",
    "RATIONAL",
    "UNDETERMINED",
]

RATIONAL = "RATIONAL"
UNDETERMINED = "UNDETERMINED"

ResultRow = Union[tuple[int, int, int], str]


def em_criterion_i(p: int) -> bool:
    """Non-rationality test for p = 2q+1: q ≡ 3 (mod 4), q squarefree,
    and neither 4p-q nor q+1 a perfect square.  True implies the group of
    order p has non-rational invariant field over Q."""
    if p < 3 or p % 2 == 0:
        return False
    q, r = divmod(p - 1, 2)
    if r or q % 4 != 3:
        return False
    if not is_squarefree(q):
        return False
    return not is_square(4 * p - q) and not is_square(q + 1)


def em_criterion_ii(p: int) -> bool:
    """Non-rationality test for p = 8q+1: q not ≡ 3 (mod 4), q squarefree,
    and neither p-q nor p-4q a perfect square."""
    if p < 3 or p % 2 == 0:
        return False
    q, r = divmod(p - 1, 8)
    if r or q % 4 == 3:
        return False
    if not is_squarefree(q):
        return False
    return not is_square(p - q) and not is_square(p - 4 * q)


def em_tables(limit: int) -> tuple[list[int], list[int]]:
    """All primes below limit passing criterion i, and all passing
    criterion ii, each sorted ascending."""
    table_i = []
    table_ii = []
    for p in primes_below(limit):
        if p < 3:
            continue
        if em_criterion_i(p):
            table_i.append(p)
        if em_criterion_ii(p):
            table_ii.append(p)
    return table_i, table_ii


def _require(ok: bool, what: str) -> None:
    """Reject malformed reference data; unlike assert, survives python -O."""
    if not ok:
        raise ValueError(f"bundled reference data: {what}")


def _data_text(name: str) -> str:
    """The text of the bundled table `name`; importlib.resources is imported
    here, so only a load of the reference data pays for it."""
    from importlib import resources

    return resources.files("noether.data").joinpath(name).read_text()


def _read_rows(name: str) -> dict[int, ResultRow]:
    rows: dict[int, ResultRow] = {}
    for n, line in enumerate(_data_text(name).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{name} line {n} ({line!r})"
        fields = line.split(",")
        marker = fields[1:] in ([RATIONAL], [UNDETERMINED])
        _require(marker or len(fields) == 4, f"{where}: want p,d+,d-,grh or p,{RATIONAL} or p,{UNDETERMINED}")
        numbers = [int(f) for f in fields[:1 if marker else 4] if f.isascii() and f.removeprefix("-").isdecimal()]
        _require(len(numbers) == (1 if marker else 4), f"{where}: a field is not an integer")
        p, *row = numbers
        _require(p not in rows, f"{name} has a second row for {p}")
        if marker:
            rows[p] = fields[1]
            continue
        # degree 1 never obstructs, so an obstructing subfield has degree >= 2
        _require(min(row[:2]) >= 2, f"{where}: a degree is below 2")
        _require(row[2] in (0, 1), f"{where}: GRH flag {row[2]} is not 0 or 1")
        rows[p] = tuple(row)
    return rows


@lru_cache(maxsize=1)
def load_fixtures() -> Mapping[int, ResultRow]:
    """The reference table classification.txt, read-only: each prime below
    20000, ascending, mapped to its (d_plus, d_minus, grh) triple or to one
    of the markers RATIONAL / UNDETERMINED."""
    name = "classification.txt"
    rows = _read_rows(name)
    _require(list(rows) == primes_below(20000), f"{name} must hold one row per prime below 20000, ascending")
    # the paper's counts: 17 rational primes, and 46 undetermined, of which
    # GRH settles 28; 15 stay undetermined, 18 as transcribed less three
    # provable 8q+1 entries (README "Errata")
    values = list(rows.values())
    for kind, got, want in ((RATIONAL, values.count(RATIONAL), 17),
                            (UNDETERMINED, values.count(UNDETERMINED), 15),
                            ("GRH-flagged", sum(isinstance(row, tuple) and row[2] for row in values), 28)):
        _require(got == want, f"{name} has {got} {kind} rows, expected {want}")
    return MappingProxyType(rows)
