import re
from math import isqrt

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


def test_em_tables_match_fixtures():
    fx = load_fixtures()
    t1, t2 = em_tables(20000)
    assert tuple(t1) == fx.em_table_i
    assert tuple(t2) == fx.em_table_ii


def test_tables_disjoint_from_known_rational():
    fx = load_fixtures()
    rset = set(fx.known_rational)
    assert not rset & set(fx.em_table_i)
    assert not rset & set(fx.em_table_ii)
    # the two shapes p = 2q+1 and p = 8q+1 cannot coincide
    assert not set(fx.em_table_i) & set(fx.em_table_ii)
    # a criterion hit is proved non-rational, so it is never undetermined
    uset = set(fx.undetermined)
    assert not uset & set(fx.em_table_i)
    assert not uset & set(fx.em_table_ii)


def test_fixture_shapes():
    fx = load_fixtures()
    assert fx.known_rational == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 67, 71)
    assert fx.result_rows[47] == (2, 2, 0)
    assert fx.result_rows[59] == (28, 4, 1)
    assert fx.result_rows[5507] == (8, 8, 0)
    assert fx.result_rows[5987] == (2, 8, 0)
    assert fx.result_rows[8837] == (46, 2, 1)
    assert fx.result_rows[5] == RATIONAL
    assert fx.result_rows[251] == UNDETERMINED
    assert 14281 in fx.em_table_ii and 14281 not in fx.undetermined
    assert fx.result_rows[14281] == (2, 2, 0)


def test_errata_primes_are_not_undetermined():
    # Independent proof that 14281, 17681 and 18481 are NotStablyRational
    # (README "Errata"), using only the brute-force oracles.  With
    # q = (p-1)/8 squarefree and q % 4 in (1, 2), Q(sqrt(-q)) has
    # discriminant -4q; 4q divides p-1, so it lies in Q(zeta_{p-1}).  If
    # x^2 + q y^2 represents neither p nor -p, neither sign is a norm from
    # the full cyclotomic field.
    fx = load_fixtures()
    for p in (14281, 17681, 18481):
        q, r = divmod(p - 1, 8)
        assert r == 0
        assert all(e == 1 for _, e in naive_factor(q)), (p, q)
        assert q % 4 in (1, 2), (p, q)
        assert (p - 1) % (4 * q) == 0
        bound = isqrt(p) + 1
        assert represents_oracle(-4 * q, p, bound) is None, p
        assert represents_oracle(-4 * q, -p, bound) is None, p
        assert p not in fx.undetermined
        assert fx.result_rows[p] == (2, 2, 0)


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
    assert load_fixtures().result_rows[p] == (2, 8, 0)


def test_criterion_hits_are_quadratic_obstructions():
    # every table prime must show a two-sided degree-2 obstruction: shape
    # p = 2q+1 at discriminant -q, shape p = 8q+1 at discriminant -4q
    fx = load_fixtures()
    sample = list(fx.em_table_i[:25]) + list(fx.em_table_i[-5:])
    for p in sample:
        q = (p - 1) // 2
        assert -q in quadratic_subfield_discs(p - 1), p
        assert not solve_norm(-q, p, 1).solvable, p
        assert not solve_norm(-q, p, -1).solvable, p
    sample = list(fx.em_table_ii[:25]) + list(fx.em_table_ii[-5:])
    for p in sample:
        q = (p - 1) // 8
        assert -4 * q in quadratic_subfield_discs(p - 1), p
        assert not solve_norm(-4 * q, p, 1).solvable, p
        assert not solve_norm(-4 * q, p, -1).solvable, p


def test_row_grh_flags_match_conditional_set():
    fx = load_fixtures()
    flagged = {p for p, row in fx.result_rows.items() if isinstance(row, tuple) and row[2] == 1}
    assert flagged == set(fx.grh_conditional)


def _bundled_copy(tmp_path):
    """A copy of the bundled tables in tmp_path."""
    from importlib import resources

    for entry in resources.files("noether.data").iterdir():
        if entry.name.endswith(".txt"):
            (tmp_path / entry.name).write_text(entry.read_text())
    return tmp_path


def _data_with_extra_undetermined(tmp_path):
    """A copy of the bundled tables whose undetermined list has 16 primes."""
    _bundled_copy(tmp_path)
    primes = sorted(load_fixtures().undetermined + (14281,))
    (tmp_path / "undetermined.txt").write_text("".join(f"{p}\n" for p in primes))
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
    _assert_tables_rejected(_data_with_extra_undetermined(tmp_path),
                            "undetermined has 16 entries, expected 15", monkeypatch)


def test_short_congruence_table_is_rejected(tmp_path, monkeypatch):
    # the congruence tables are sized like every other bundled table
    data = _bundled_copy(tmp_path)
    table = data / "em_table_ii.txt"
    table.write_text("".join(table.read_text().splitlines(keepends=True)[:-1]))
    _assert_tables_rejected(data, "em_table_ii has 188 entries, expected 189", monkeypatch)


def test_marker_rows_must_be_their_sets(tmp_path, monkeypatch):
    # cross_check reads the known-rational set as the RATIONAL rows, so a
    # RATIONAL row outside known_rational.txt is rejected at load
    data = _bundled_copy(tmp_path)
    rows = data / "classification.txt"
    text = rows.read_text()
    assert text.startswith("2,RATIONAL\n") and "\n47,2,2,0\n" in text
    rows.write_text(text.replace("\n47,2,2,0\n", "\n47,RATIONAL\n"))
    _assert_tables_rejected(data, "rows [47] must be RATIONAL exactly when in known_rational", monkeypatch)


def test_unsorted_table_is_rejected(tmp_path, monkeypatch):
    import noether.criteria as criteria

    data = _data_with_extra_undetermined(tmp_path)
    (data / "hard_grh.txt").write_text("\n".join(reversed((data / "hard_grh.txt").read_text().split())))
    monkeypatch.setattr(criteria, "_data_text", lambda name: (data / name).read_text())
    with pytest.raises(ValueError, match="hard_grh.txt must be sorted"):
        criteria._read_primes("hard_grh.txt")


def test_second_row_for_a_prime_is_rejected(tmp_path, monkeypatch):
    # a later row for 5987 must not overwrite the erratum row 5987,2,8,0
    data = _bundled_copy(tmp_path)
    rows = data / "classification.txt"
    text = rows.read_text()
    assert "\n5987,2,8,0\n" in text and text.endswith("\n")
    rows.write_text(text + "5987,2,2,0\n")
    _assert_tables_rejected(data, "classification.txt has a second row for 5987", monkeypatch)


def test_repeated_prime_in_a_table_is_rejected(tmp_path, monkeypatch):
    # the first prime twice and the last one gone keeps the size and the order
    data = _bundled_copy(tmp_path)
    table = data / "hard_grh.txt"
    primes = table.read_text().split()
    table.write_text("".join(f"{p}\n" for p in [primes[0], *primes[:-1]]))
    _assert_tables_rejected(data, "hard_grh.txt must be sorted, each prime once", monkeypatch)


def test_row_for_a_non_prime_is_rejected(tmp_path, monkeypatch):
    data = _bundled_copy(tmp_path)
    rows = data / "classification.txt"
    rows.write_text(rows.read_text().replace("\n5987,2,8,0\n", "\n5986,2,8,0\n"))
    _assert_tables_rejected(
        data, "classification.txt must hold one row per prime below 20000, ascending", monkeypatch)
