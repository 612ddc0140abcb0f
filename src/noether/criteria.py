"""Elementary non-rationality criteria and the published reference data.

Two congruence-and-squarefree tests decide non-rationality for primes of
the shapes p = 2q+1 and p = 8q+1 without any norm-equation work.  The
package also ships the published classification reference data as plain
text files: the known-rational and undetermined prime sets, the
GRH-conditional set, the hard-instance sets, the two golden tables of
criterion hits below 20000, and the full per-prime result table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Union

from .arith import is_square, is_squarefree, primes_below

__all__ = [
    "em_criterion_i",
    "em_criterion_ii",
    "em_tables",
    "FixtureSets",
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


@dataclass(frozen=True)
class FixtureSets:
    """Published reference data, loaded from the packaged text files.

    result_rows maps each prime below 20000 to either a (d_plus, d_minus,
    grh) triple or one of the markers RATIONAL / UNDETERMINED.
    """

    known_rational: tuple[int, ...]
    undetermined: tuple[int, ...]
    grh_conditional: tuple[int, ...]
    hard_unconditional: tuple[int, ...]
    hard_grh: tuple[int, ...]
    hardest_unconditional: tuple[int, ...]
    hardest_grh: tuple[int, ...]
    em_table_i: tuple[int, ...]
    em_table_ii: tuple[int, ...]
    result_rows: dict[int, ResultRow]


def _require(ok: bool, what: str) -> None:
    """Reject malformed reference data; unlike assert, survives python -O."""
    if not ok:
        raise ValueError(f"bundled reference data: {what}")


def _read_primes(name: str) -> tuple[int, ...]:
    text = resources.files("noether.data").joinpath(name).read_text()
    vals = tuple(int(line) for line in text.split() if line)
    _require(all(a < b for a, b in zip(vals, vals[1:])), f"{name} must be sorted, each prime once")
    return vals


def _read_rows(name: str) -> dict[int, ResultRow]:
    text = resources.files("noether.data").joinpath(name).read_text()
    rows: dict[int, ResultRow] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split(",")
        p = int(parts[0])
        _require(p not in rows, f"{name} has a second row for {p}")
        if len(parts) == 2:
            marker = parts[1]
            if marker not in (RATIONAL, UNDETERMINED):
                raise ValueError(f"bad marker {marker!r} in {name}")
            rows[p] = marker
        elif len(parts) == 4:
            rows[p] = (int(parts[1]), int(parts[2]), int(parts[3]))
        else:
            raise ValueError(f"bad row {line!r} in {name}")
    return rows


# each bundled prime table, by its FixtureSets field and file stem, and the
# number of primes it must hold
_TABLE_SIZES = {
    "known_rational": 17,
    # 18 as transcribed, less three provable 8q+1 entries (README "Errata")
    "undetermined": 15,
    "grh_conditional": 28,
    "hard_unconditional": 40,
    "hard_grh": 8,
    "hardest_unconditional": 20,
    "hardest_grh": 1,
    "em_table_i": 394,
    "em_table_ii": 189,
}


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSets:
    fx = FixtureSets(**{name: _read_primes(f"{name}.txt") for name in _TABLE_SIZES},
                     result_rows=_read_rows("classification.txt"))
    for field, size in _TABLE_SIZES.items():
        got = len(getattr(fx, field))
        _require(got == size, f"{field} has {got} entries, expected {size}")
    _require(list(fx.result_rows) == primes_below(20000),
             "classification.txt must hold one row per prime below 20000, ascending")
    grh = set(fx.grh_conditional)
    _require(set(fx.hard_grh) <= grh, "hard_grh must lie in grh_conditional")
    _require(set(fx.hardest_grh) <= grh, "hardest_grh must lie in grh_conditional")
    # cross_check reads these two sets as the markers of result_rows
    for marker, name in ((RATIONAL, "known_rational"), (UNDETERMINED, "undetermined")):
        bad = set(getattr(fx, name)) ^ {p for p, row in fx.result_rows.items() if row == marker}
        _require(not bad, f"rows {sorted(bad)} must be {marker} exactly when in {name}")
    bad = [p for p, row in fx.result_rows.items()
           if isinstance(row, tuple) and (row[2] == 1) != (p in grh)]
    _require(not bad, f"GRH flags of rows {bad} disagree with grh_conditional")
    return fx
