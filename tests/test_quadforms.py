import pytest

from noether.arith import is_prime, jacobi, primes_below
from noether.quadforms import (
    QuadraticForm,
    fundamental_discriminant,
    is_fundamental,
    principal_cycle,
    principal_form,
    quadratic_subfield_discs,
    solve_norm,
)
from oracles import quadratic_discs_oracle, represents_oracle


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(-4) == -4
    assert fundamental_discriminant(-23) == -23
    assert fundamental_discriminant(12) == 12
    assert fundamental_discriminant(45) == 5  # 45 = 9*5
    assert fundamental_discriminant(-12) == -3
    assert fundamental_discriminant(16) == 1  # square discriminant
    with pytest.raises(ValueError):
        fundamental_discriminant(7)  # 7 ≡ 3 (mod 4): not a discriminant


def test_is_fundamental():
    assert is_fundamental(5)
    assert is_fundamental(-23)
    assert is_fundamental(8)
    assert is_fundamental(-8)
    assert is_fundamental(-4)
    assert is_fundamental(12)
    assert not is_fundamental(1)
    assert not is_fundamental(9)
    assert not is_fundamental(-12)
    assert not is_fundamental(45)


def test_quadratic_subfield_discs_examples():
    assert quadratic_subfield_discs(46) == [-23]
    assert quadratic_subfield_discs(12) == [-4, -3, 12]
    assert quadratic_subfield_discs(5) == [5]
    assert quadratic_subfield_discs(8836) == [-47, -4, 188]


def test_quadratic_subfield_discs_match_divisor_scan_oracle():
    moduli = set(range(3, 5001)) | {p - 1 for p in primes_below(20000) if p > 3}
    for n in sorted(moduli):
        assert quadratic_subfield_discs(n) == quadratic_discs_oracle(n), n


def test_quadratic_subfield_disc_count_matches_unit_group():
    from noether.abelian import subgroups, unit_group

    for n in (5, 8, 12, 15, 16, 24, 46, 60, 100, 8836):
        g = unit_group(n)
        t = sum(1 for d in g.cyclic_orders if d % 2 == 0)
        assert len(quadratic_subfield_discs(n)) == 2**t - 1, n
        index2 = [s for s in subgroups(g, max_index=2) if s.index == 2]
        assert len(index2) == 2**t - 1, n


def test_principal_form_examples():
    assert principal_form(5) == QuadraticForm(1, 1, -1)
    assert principal_form(-23) == QuadraticForm(1, 1, 6)
    assert principal_form(-4) == QuadraticForm(1, 0, 1)
    with pytest.raises(ValueError):
        principal_form(9)


def test_principal_cycle_examples():
    assert QuadraticForm(1, 1, -1) in principal_cycle(5).forms
    assert QuadraticForm(1, 3, -1) in principal_cycle(13).forms
    cyc12 = principal_cycle(12)
    assert all(f.disc == 12 for f in cyc12.forms)
    # cycles close: every stored transform reproduces its form from the
    # principal form
    pf = principal_form(12)
    for f, m in zip(cyc12.forms, cyc12.transforms):
        a = pf.value(m[0], m[2])
        c = pf.value(m[1], m[3])
        b = 2 * pf.a * m[0] * m[1] + pf.b * (m[0] * m[3] + m[1] * m[2]) + 2 * pf.c * m[2] * m[3]
        assert (a, b, c) == (f.a, f.b, f.c)


def test_solve_norm_examples():
    d = solve_norm(5, 11, 1)
    assert d.solvable and d.witness is not None
    x, y = d.witness
    assert x * x + x * y - y * y == 11

    d47 = solve_norm(-23, 47, 1)
    assert not d47.solvable

    d59 = solve_norm(-23, 59, 1)
    assert d59.solvable
    x, y = d59.witness
    assert x * x + x * y + 6 * y * y == 59


def test_solve_norm_negative_definite_always_unsolvable():
    for D in (-3, -4, -8, -23, -47):
        for p in (5, 7, 11, 47, 59):
            if p > 2 and D % p != 0:
                assert not solve_norm(D, p, -1).solvable


def test_solve_norm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_norm(5, 2, 1)
    with pytest.raises(ValueError):
        solve_norm(5, 5, 1)
    with pytest.raises(ValueError):
        solve_norm(45, 11, 1)
    with pytest.raises(ValueError):
        solve_norm(5, 11, 2)


def test_solve_norm_witnesses_verify():
    # every Solvable must ship a working witness
    for D in (-3, -4, -8, -23, 5, 8, 12, 13, 60):
        form = principal_form(D)
        for p in primes_below(300):
            if p == 2 or D % p == 0:
                continue
            for sign in (1, -1):
                dec = solve_norm(D, p, sign)
                if dec.solvable:
                    assert form.value(*dec.witness) == sign * p, (D, p, sign)


def test_solve_norm_against_oracle_slice():
    # the full |D| <= 200, p <= 500 sweep is acceptance criterion 6; this
    # slice keeps the unit suite quick while covering both signs and both
    # signatures
    discs = [d for d in range(-60, 61) if d not in (0, 1) and is_fundamental(d)]
    for D in discs:
        for p in primes_below(120):
            if p == 2 or D % p == 0:
                continue
            for sign in (1, -1):
                dec = solve_norm(D, p, sign)
                if dec.solvable:
                    assert principal_form(D).value(*dec.witness) == sign * p
                else:
                    assert represents_oracle(D, sign * p, 10 * p) is None, (D, p, sign)


def test_solve_norm_jacobi_gate():
    # jacobi(D,p) = -1 must force unsolvable for both signs
    for D in (-23, 5, 13):
        for p in primes_below(100):
            if p == 2 or D % p == 0:
                continue
            if jacobi(D % p, p) == -1:
                assert not solve_norm(D, p, 1).solvable
                assert not solve_norm(D, p, -1).solvable


def test_em_quadratic_bridge_examples():
    # the elementary criteria correspond to two-sided degree-2 obstructions
    # 47 = 2*23+1: disc -23 blocks both signs
    assert not solve_norm(-23, 47, 1).solvable
    assert not solve_norm(-23, 47, -1).solvable
    # 113 = 8*14+1: disc -56 blocks both signs
    assert not solve_norm(-56, 113, 1).solvable
    assert not solve_norm(-56, 113, -1).solvable
