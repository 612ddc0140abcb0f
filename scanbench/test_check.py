"""Tests of the independent checker: it accepts a true scan of 2..110 at
degree 2 and rejects each kind of corruption.

    python3 -m pytest scanbench
"""

import json

import pytest

import check

STATUS = {"R": "Rational", "N": "NotStablyRational", "U": "Undetermined"}
# `noether scan --from 2 --to 110 --max-degree 2`, one tuple per row
TRUE_ROWS = [
    (2, "R", None, None, "KNOWN_TABLE"), (3, "R", None, None, "KNOWN_TABLE"),
    (5, "R", None, None, "CERTIFICATE"), (7, "R", None, None, "CERTIFICATE"),
    (11, "R", None, None, "CERTIFICATE"), (13, "R", None, None, "CERTIFICATE"),
    (17, "R", None, None, "CERTIFICATE"), (19, "R", None, None, "CERTIFICATE"),
    (23, "R", None, None, "KNOWN_TABLE"), (29, "R", None, None, "KNOWN_TABLE"),
    (31, "R", None, None, "CERTIFICATE"), (37, "R", None, None, "KNOWN_TABLE"),
    (41, "R", None, None, "KNOWN_TABLE"), (43, "R", None, None, "KNOWN_TABLE"),
    (47, "N", 2, 2, "EM_I"), (53, "U", None, None, None), (59, "U", None, None, None),
    (61, "R", None, None, "KNOWN_TABLE"), (67, "R", None, None, "KNOWN_TABLE"),
    (71, "R", None, None, "KNOWN_TABLE"), (73, "U", None, None, None),
    (79, "N", 2, 2, "EM_I"), (83, "U", None, None, None), (89, "U", None, None, None),
    (97, "U", None, None, None), (101, "U", None, None, None), (103, "U", None, None, None),
    (107, "U", None, None, None), (109, "U", None, None, None),
]


def rows(**changes):
    """The true rows as dicts; changes maps a prime to new fields, or to
    None to drop its row."""
    out = []
    for p, s, dp, dm, method in TRUE_ROWS:
        row = {"p": p, "status": STATUS[s], "d_plus": dp, "d_minus": dm, "method": method, "grh": False}
        change = changes.get(f"p{p}", {})
        if change is None:
            continue
        row.update(change)
        out.append(row)
    return out


def scan_text(rs):
    return "".join(json.dumps(r) + "\n" for r in rs)


def test_true_scan_passes():
    report = check.check_scan(scan_text(rows()), 2, 110, 2)
    assert report.faults == {}
    assert report.rows == 29
    assert report.stats["open_sides"] > 0 and report.stats["definite_obstructions"] > 0


def test_rejects_flipped_status():
    undetermined = {"status": "Undetermined", "d_plus": None, "d_minus": None, "method": None}
    report = check.check_scan(scan_text(rows(p47=undetermined)), 2, 110, 2)
    assert set(report.faults) == {47}
    assert "both signs are obstructed" in report.faults[47]

    decided = {"status": "NotStablyRational", "d_plus": 2, "d_minus": 2, "method": "QUADRATIC"}
    report = check.check_scan(scan_text(rows(p53=decided)), 2, 110, 2)
    assert set(report.faults) == {53}

    report = check.check_scan(scan_text(rows(p23=undetermined)), 2, 110, 2)
    assert set(report.faults) == {23}
    assert "rational set" in report.faults[23]


def test_rejects_dropped_prime():
    report = check.check_scan(scan_text(rows(p83=None)), 2, 110, 2)
    assert report.faults == {83: "prime missing from the output"}


def test_rejects_wrong_d_plus():
    report = check.check_scan(scan_text(rows(p47={"d_plus": 3})), 2, 110, 2)
    assert set(report.faults) == {47}
    # a well-formed degree that degree 2 contradicts
    with pytest.raises(check.CheckError, match="degree 2 is obstructed"):
        check.prove_degree2({"p": 47, "status": "NotStablyRational", "d_plus": 4, "d_minus": 2,
                             "method": "BACKEND", "grh": False})


def test_rejects_unsorted_rows():
    rs = rows()
    rs[3], rs[4] = rs[4], rs[3]
    with pytest.raises(check.CheckError, match="ascending"):
        check.check_scan(scan_text(rs), 2, 110, 2)


def test_norm_witness():
    assert check.norm_witness(-23, 47) is None          # the README's example
    assert check.norm_witness(-23, -47) is None
    x, y = check.norm_witness(-4, 5)                    # 5 = N(2 + i)
    assert x * x + 4 * y * y == 20
    x, y = check.norm_witness(97, 389)                  # needs the Pell search
    assert x * x - 97 * y * y == 4 * 389
    assert check.quadratic_discs(46) == [-23]


def test_subgroup_counts():
    assert [check.count_subgroups_of_index(8, d) for d in (1, 2, 4)] == [1, 3, 1]
    assert [check.count_subgroups_of_index(7, d) for d in (1, 2, 3, 4, 6)] == [1, 1, 1, 0, 1]
    # (Z/15)* = Z/2 x Z/4: three subgroups of index 2, three of index 4
    assert [check.count_subgroups_of_index(15, d) for d in (2, 4, 8)] == [3, 3, 1]


def test_backend_fields_rejects_reducible_and_missing():
    rs = [{"p": 13, "status": "Rational", "d_plus": None, "d_minus": None,
           "method": "CERTIFICATE", "grh": False}]
    # Q(zeta_12) has degree 4 with one subfield of degree 4 and none of degree 3
    good = {"requests": [{"minpoly": [1, 0, -1, 0, 1], "target": 13}]}
    assert check.check_backend_fields(rs, good, 4)["distinct_minpolys"] == 1
    reducible = {"requests": [{"minpoly": [1, 0, 2, 0, 1], "target": 13}]}
    with pytest.raises(check.CheckError, match="reducible"):
        check.check_backend_fields(rs, reducible, 4)
    with pytest.raises(check.CheckError, match="0 degree-4 fields"):
        check.check_backend_fields(rs, {"requests": []}, 4)
