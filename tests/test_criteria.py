import hashlib
import re
from math import isqrt
from pathlib import Path

import pytest

from noether.criteria import (
    RATIONAL,
    UNDETERMINED,
    em_criterion_i,
    em_criterion_ii,
    em_tables,
    load_fixtures,
)
from noether.quadforms import quadratic_subfield_discs, solve_norm
from oracles import nagell_search, naive_factor, naive_is_fundamental, naive_is_prime, represents_oracle


def test_em_criterion_i_examples():
    assert em_criterion_i(47)
    assert not em_criterion_i(59)  # q = 29 ≡ 1 (mod 4)
    assert not em_criterion_i(7)  # q = 3 but q+1 = 4 is a square
    assert not em_criterion_i(2)


def test_em_criterion_ii_examples():
    assert em_criterion_ii(113)
    assert not em_criterion_ii(17)  # q = 2, p-4q = 9 = 3^2
    assert em_criterion_ii(19889)
    assert not em_criterion_ii(47)


def test_em_tables_examples():
    assert em_tables(200)[0] == [47, 79, 167, 191]
    assert em_tables(250)[1] == [113, 137, 233]
    assert em_tables(3) == ([], [])


# sha256 of `noether em-tables --limit 20000`: the two congruence tables,
# one prime a line, separated by a blank line
EM_TABLES_SHA256 = "58c74a3756f136205191d172eb6977b06699ae47804661018b8ee1483cab1366"


def test_em_tables_match_fixtures():
    # the tables are pinned by digest, not shipped
    t1, t2 = em_tables(20000)
    text = "".join(f"{p}\n" for p in t1) + "\n" + "".join(f"{p}\n" for p in t2)
    assert (len(t1), len(t2)) == (394, 189)
    assert hashlib.sha256(text.encode()).hexdigest() == EM_TABLES_SHA256


def test_tables_disjoint_from_known_rational():
    rows = load_fixtures()
    t1, t2 = em_tables(20000)
    # the two shapes p = 2q+1 and p = 8q+1 cannot coincide
    assert not set(t1) & set(t2)
    # a criterion hit is proved non-rational by two degree-2 obstructions,
    # so its row is never RATIONAL or UNDETERMINED
    assert {rows[p] for p in t1 + t2} == {(2, 2, 0)}


def test_fixture_shapes():
    rows = load_fixtures()
    assert tuple(p for p, row in rows.items() if row == RATIONAL) == (
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 67, 71)
    assert rows[47] == (2, 2, 0)
    assert rows[59] == (28, 4, 1)
    assert rows[5507] == (8, 8, 0)
    assert rows[5987] == (2, 8, 0)
    assert rows[8837] == (46, 2, 1)
    assert rows[5] == RATIONAL
    assert rows[251] == UNDETERMINED
    assert em_criterion_ii(14281) and rows[14281] == (2, 2, 0)


def test_errata_primes_are_not_undetermined():
    # Independent proof that 14281, 17681 and 18481 are NotStablyRational
    # (README "Errata"), using only the brute-force oracles.  With
    # q = (p-1)/8 squarefree and q % 4 in (1, 2), Q(sqrt(-q)) has
    # discriminant -4q; 4q divides p-1, so it lies in Q(zeta_{p-1}).  If
    # x^2 + q y^2 represents neither p nor -p, neither sign is a norm from
    # the full cyclotomic field.
    rows = load_fixtures()
    for p in (14281, 17681, 18481):
        q, r = divmod(p - 1, 8)
        assert r == 0
        assert all(e == 1 for _, e in naive_factor(q)), (p, q)
        assert q % 4 in (1, 2), (p, q)
        assert (p - 1) % (4 * q) == 0
        bound = isqrt(p) + 1
        assert represents_oracle(-4 * q, p, bound) is None, p
        assert represents_oracle(-4 * q, -p, bound) is None, p
        assert rows[p] == (2, 2, 0)


def test_row_5987_has_d_plus_2():
    # Independent proof that the reference row of 5987 has d+ = 2 (README
    # "Errata"), using only the oracles and sympy.  2993 = 41*73 is a
    # fundamental discriminant dividing 5986, so Q(sqrt(2993)) lies in
    # Q(zeta_5986); its norm form is x^2 + xy - 748 y^2.  Below the Nagell
    # bound of the unit 1313 + 24 sqrt(2993) that form does not represent
    # 5987, so +5987 is not a norm from it; it does represent -5987.
    from sympy.solvers.diophantine.diophantine import diop_DN

    p, D = 5987, 2993
    assert naive_is_prime(p) and naive_factor(D) == [(41, 1), (73, 1)]
    assert naive_is_fundamental(D) and (p - 1) % D == 0
    assert nagell_search(D, p, (1313, 24)) is None
    assert diop_DN(D, 4 * p) == []
    x, y = 313, 12
    assert x * x + x * y - 748 * y * y == -p
    assert (2 * x + y, y) in diop_DN(D, -4 * p)
    assert load_fixtures()[p] == (2, 8, 0)


def test_criterion_hits_are_quadratic_obstructions():
    # every table prime must show a two-sided degree-2 obstruction: shape
    # p = 2q+1 at discriminant -q, shape p = 8q+1 at discriminant -4q
    t1, t2 = em_tables(20000)
    sample = t1[:25] + t1[-5:]
    for p in sample:
        q = (p - 1) // 2
        assert -q in quadratic_subfield_discs(p - 1), p
        assert not solve_norm(-q, p, 1).solvable, p
        assert not solve_norm(-q, p, -1).solvable, p
    sample = t2[:25] + t2[-5:]
    for p in sample:
        q = (p - 1) // 8
        assert -4 * q in quadratic_subfield_discs(p - 1), p
        assert not solve_norm(-4 * q, p, 1).solvable, p
        assert not solve_norm(-4 * q, p, -1).solvable, p


def test_package_ships_one_table():
    # _bundled_copy copies every table shipped, so one left behind or added
    # would go unnoticed by the corruption tests below; the table changes
    # only with a proof (README "Errata"), and then its digest here and in
    # README "Bundled reference table" with it
    from importlib import resources

    data = resources.files("noether.data")
    assert {e.name for e in data.iterdir() if e.name.endswith(".txt")} == {"classification.txt"}
    assert hashlib.sha256(data.joinpath("classification.txt").read_bytes()).hexdigest() == (
        "f902048d10d5fc5d247fa9ba8a31e9d72e1d8d309fbfa75684648a501e15d4ae")


def test_hard_instance_lists():
    # transcribed with the reference table; their selection rule is not in
    # the repository, and no code reads them
    data = Path(__file__).with_name("data")
    rows = load_fixtures()
    for name, size, grh in (("hard_unconditional", 40, 0), ("hard_grh", 8, 1),
                            ("hardest_unconditional", 20, 0), ("hardest_grh", 1, 1)):
        primes = [int(p) for p in (data / f"{name}.txt").read_text().split()]
        assert len(primes) == size, name
        assert primes == sorted(set(primes)), f"{name} must be sorted, each prime once"
        assert all(isinstance(rows[p], tuple) and rows[p][2] == grh for p in primes), name


def _bundled_copy(tmp_path):
    """A copy of every table the package ships, in tmp_path."""
    from importlib import resources

    for entry in resources.files("noether.data").iterdir():
        if entry.name.endswith(".txt"):
            (tmp_path / entry.name).write_text(entry.read_text())
    return tmp_path


def _row_replaced(tmp_path, old, new):
    """A copy of the bundled table whose row `old` reads `new`."""
    rows = _bundled_copy(tmp_path) / "classification.txt"
    text = rows.read_text()
    assert f"\n{old}\n" in text
    rows.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    return tmp_path


_FEED_TABLES = """
from pathlib import Path
import noether.criteria as criteria
criteria._data_text = lambda name: (Path(sys.argv[1]) / name).read_text()
criteria.load_fixtures()
"""


def _assert_tables_rejected(data, message, monkeypatch):
    """load_fixtures raises ValueError(message) on the tables in data,
    in-process and under python -O."""
    import noether.criteria as criteria
    from optimized import run_optimized

    monkeypatch.setattr(criteria, "_data_text", lambda name: (data / name).read_text())
    load_fixtures.cache_clear()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fixtures()
    finally:
        load_fixtures.cache_clear()

    proc = run_optimized(_FEED_TABLES, str(data))
    assert proc.returncode == 1, proc
    assert f"ValueError: bundled reference data: {message}" in proc.stderr


def test_wrong_size_table_is_rejected(tmp_path, monkeypatch):
    # a 16th UNDETERMINED row
    _assert_tables_rejected(_row_replaced(tmp_path, "14281,2,2,0", "14281,UNDETERMINED"),
                            "classification.txt has 16 UNDETERMINED rows, expected 15", monkeypatch)


def test_eighteenth_rational_row_is_rejected(tmp_path, monkeypatch):
    _assert_tables_rejected(_row_replaced(tmp_path, "47,2,2,0", "47,RATIONAL"),
                            "classification.txt has 18 RATIONAL rows, expected 17", monkeypatch)


def test_cleared_grh_flag_is_rejected(tmp_path, monkeypatch):
    _assert_tables_rejected(_row_replaced(tmp_path, "59,28,4,1", "59,28,4,0"),
                            "classification.txt has 27 GRH-flagged rows, expected 28", monkeypatch)


@pytest.mark.parametrize("row, why", [
    ("47,2,2,7", "GRH flag 7 is not 0 or 1"),
    ("47,1,0,0", "a degree is below 2"),
    ("47,-2,2,0", "a degree is below 2"),
    ("47,x,2,0", "a field is not an integer"),
], ids=["grh-flag-7", "degree-1", "negative-degree", "not-an-integer"])
def test_malformed_row_is_rejected(row, why, tmp_path, monkeypatch):
    # 47 is the 15th prime, so its row is line 15
    _assert_tables_rejected(_row_replaced(tmp_path, "47,2,2,0", row),
                            f"classification.txt line 15 ({row!r}): {why}", monkeypatch)


def test_unsorted_table_is_rejected(tmp_path, monkeypatch):
    _assert_tables_rejected(_row_replaced(tmp_path, "47,2,2,0\n53,6,2,0", "53,6,2,0\n47,2,2,0"),
                            "classification.txt must hold one row per prime below 20000, ascending", monkeypatch)


def test_second_row_for_a_prime_is_rejected(tmp_path, monkeypatch):
    # a later row for 5987 must not overwrite the erratum row 5987,2,8,0
    data = _bundled_copy(tmp_path)
    rows = data / "classification.txt"
    text = rows.read_text()
    assert "\n5987,2,8,0\n" in text and text.endswith("\n")
    rows.write_text(text + "5987,2,2,0\n")
    _assert_tables_rejected(data, "classification.txt has a second row for 5987", monkeypatch)


def test_repeated_prime_in_a_table_is_rejected(tmp_path, monkeypatch):
    # the first row twice and the last one gone keeps the size
    data = _bundled_copy(tmp_path)
    rows = data / "classification.txt"
    lines = rows.read_text().splitlines(keepends=True)
    rows.write_text("".join([lines[0], *lines[:-1]]))
    _assert_tables_rejected(data, "classification.txt has a second row for 2", monkeypatch)


def test_row_for_a_non_prime_is_rejected(tmp_path, monkeypatch):
    _assert_tables_rejected(_row_replaced(tmp_path, "5987,2,8,0", "5986,2,8,0"),
                            "classification.txt must hold one row per prime below 20000, ascending", monkeypatch)
