from math import isqrt

import pytest

import noether.quadforms as qf
from noether.arith import is_prime, jacobi, primes_below
from noether.quadforms import (
    fundamental_discriminant,
    is_fundamental,
    principal_cycle,
    quadratic_subfield_discs,
    solve_norm,
)
from oracles import (
    OracleForm,
    is_reduced_indefinite_oracle,
    norm_decision_oracle,
    principal_form_coeffs,
    quadratic_discs_oracle,
    represents_oracle,
    rho_step_oracle,
)
from optimized import run_optimized


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


def principal(D):
    return OracleForm(*principal_form_coeffs(D))


def test_principal_form_examples():
    assert qf._principal(5) == (1, 1, -1)
    assert qf._principal(-23) == (1, 1, 6)
    assert qf._principal(-4) == (1, 0, 1)
    with pytest.raises(ValueError):
        principal_cycle(45)  # 45 = 9 * 5 is not fundamental


def test_principal_cycle_examples():
    assert (1, 1, -1) in principal_cycle(5)
    assert (1, 3, -1) in principal_cycle(13)
    cyc12 = principal_cycle(12)
    assert all(OracleForm(*f).disc == 12 for f in cyc12)
    # cycles close: every stored transform reproduces its form from the
    # principal form
    pf = principal(12)
    for f, m in cyc12.items():
        a = pf.value(m[0], m[2])
        c = pf.value(m[1], m[3])
        b = 2 * pf.a * m[0] * m[1] + pf.b * (m[0] * m[3] + m[1] * m[2]) + 2 * pf.c * m[2] * m[3]
        assert (a, b, c) == f


def _real_fundamental(lo, hi):
    return [D for D in range(lo, hi + 1) if is_fundamental(D)]


def test_principal_cycle_structure():
    # every fundamental D in 5..3000: the stored forms are reduced, of
    # discriminant D and distinct; each transform is unimodular and carries
    # the principal form to its form; the rho-step of the last form closes
    # the cycle
    for D in _real_fundamental(5, 3000):
        cyc = principal_cycle(D)
        forms = [OracleForm(*f) for f in cyc]
        assert len(set(forms)) == len(forms), D
        pf = principal(D)
        for f, m in zip(forms, cyc.values()):
            assert f.disc == D and is_reduced_indefinite_oracle(f), (D, f)
            assert m[0] * m[3] - m[1] * m[2] == 1, (D, m)
            assert pf.transform(m) == f, (D, f, m)
        assert rho_step_oracle(forms[-1])[0] == forms[0], D


def test_rho_step_matches_oracle_along_cycles():
    # the integer-triple step against the substitution-based oracle step:
    # the same form and the same k at every step, from the principal form
    # and from candidate forms (±p, b, c), through two full cycles
    for D in _real_fundamental(5, 3000)[::7] + [2993, 8969, 9689]:
        s = isqrt(D)
        starts = [principal_form_coeffs(D)]
        for p in (101, 1009, 5987):
            if D % p and jacobi(D % p, p) == 1:
                b = next(b for b in range(D % 2, 2 * p, 2) if (b * b - D) % (4 * p) == 0)
                starts += [(p, b, (b * b - D) // (4 * p)), (-p, b, -(b * b - D) // (4 * p))]
        for start in starts:
            f = OracleForm(*start)
            a, b, c = start
            for _ in range(2 * len(principal_cycle(D)) + 20):
                g, m = rho_step_oracle(f)
                a, b, c, k = qf._rho_step(a, b, c, D, s)
                assert (a, b, c) == (g.a, g.b, g.c) and m == (0, -1, 1, k), (D, start, f)
                f = g


def test_solve_norm_on_long_cycles_against_diop_dn():
    # real D > 1000 from the quadratic subfields of Q(zeta_{p-1}), p < 20000,
    # both signs, against an independent Pell-type decision: the three
    # longest principal cycles (all six norms solvable), and three long
    # cycles where +p or -p is not a norm. diop_DN takes ~0.5 s per D.
    pairs = [(D, p) for p in primes_below(20000) if p > 3
             for D in quadratic_subfield_discs(p - 1) if D > 1000]
    pairs.sort(key=lambda dp: -len(principal_cycle(dp[0])))
    for D, p in pairs[:3] + [(2545, 10181), (9489, 18979), (6609, 13219)]:
        assert len(principal_cycle(D)) >= 50, D
        for sign in (1, -1):
            assert solve_norm(D, p, sign).solvable == norm_decision_oracle(D, sign * p), (D, p, sign)
    assert not solve_norm(2545, 10181, 1).solvable
    assert not solve_norm(9489, 18979, -1).solvable


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


def test_negative_definite_minus_sign_computes_no_symbol(monkeypatch):
    # x^2 + bxy + cy^2 >= 0 for D < 0 decides sign -1 before (D/p)
    def no_symbol(a, n):
        raise AssertionError(f"jacobi({a}, {n}) computed")

    for p in primes_below(2000)[2:]:
        for D in quadratic_subfield_discs(p - 1):
            if D < 0:
                want = solve_norm(D, p, -1)
                with monkeypatch.context() as m:
                    m.setattr(qf, "jacobi", no_symbol)
                    assert solve_norm(D, p, -1) == want
                assert not want.solvable and want.witness is None


def test_solve_norm_rejects_bad_inputs(alarm):
    with pytest.raises(ValueError):
        solve_norm(5, 2, 1)
    with pytest.raises(ValueError):
        solve_norm(5, 5, 1)
    with pytest.raises(ValueError):
        solve_norm(45, 11, 1)
    with pytest.raises(ValueError):
        solve_norm(5, 11, 2)
    # a composite p: modulo the square 9 no z has Jacobi symbol -1, so the
    # square root search would never end; modulo 15 it reached a
    # misleading ArithmeticError
    alarm(10)
    for D, p in ((-4, 9), (5, 15)):
        with pytest.raises(ValueError, match=f"odd prime not dividing D, not {p}"):
            solve_norm(D, p, 1)


def test_solve_norm_witnesses_verify():
    # every Solvable must ship a working witness
    for D in (-3, -4, -8, -23, 5, 8, 12, 13, 60):
        form = principal(D)
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
                    assert principal(D).value(*dec.witness) == sign * p
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


# Each check that guards a verdict raises ArithmeticError, also under -O:
# a wrong modular square root, a rho-step that is not the change of basis
# (0, -1, 1, k) (here: a form of discriminant 5 stepped as if it were 13),
# a principal cycle that never closes, and a non-unimodular transform.
_CHECKS_UNDER_O = """
import noether.quadforms as qf
from noether.arith import _sqrt_mod_residue


def fires(call):
    try:
        call()
    except ArithmeticError as e:
        print(e)
    else:
        raise SystemExit("no ArithmeticError")


qf._sqrt_mod_residue = lambda a, p: _sqrt_mod_residue(a, p) + 1
fires(lambda: qf.solve_norm(5, 11, 1))
qf._sqrt_mod_residue = _sqrt_mod_residue
fires(lambda: qf._rho_step(1, 1, -1, 13, 3))
rho_step = qf._rho_step
qf._rho_step = lambda a, b, c, D, s: (a, b, c + 1, 0)
fires(lambda: qf.principal_cycle(5))
qf._rho_step = rho_step
fires(lambda: qf._mat_inv_unimodular((2, 0, 0, 1)))
"""


def test_wrong_square_root_raises(monkeypatch):
    from noether.arith import _sqrt_mod_residue

    monkeypatch.setattr(qf, "_sqrt_mod_residue", lambda a, p: _sqrt_mod_residue(a, p) + 1)
    with pytest.raises(ArithmeticError, match="is not a square root of 5 mod 44"):
        solve_norm(5, 11, 1)


def test_rho_step_identity_raises():
    assert qf._rho_step(1, 1, -1, 5, 2) == (-1, 1, 1, -1)
    with pytest.raises(ArithmeticError, match=r"not a change of basis by \(0, -1, 1, -2\)"):
        qf._rho_step(1, 1, -1, 13, 3)


def test_runaway_cycle_raises(monkeypatch):
    steps = iter(range(1000))

    def never_closes(a, b, c, D, s):
        next(steps)  # StopIteration rather than a hang if the bound is gone
        return a, b, c + 1, 0

    monkeypatch.setattr(qf, "_rho_step", never_closes)
    with pytest.raises(ArithmeticError, match="principal cycle of 5 does not close within 200 forms"):
        principal_cycle.__wrapped__(5)


def test_non_unimodular_transform_raises():
    assert qf._mat_inv_unimodular((2, 1, 1, 1)) == (1, -1, -1, 2)
    assert qf._mat_inv_unimodular((1, 2, 1, 1)) == (-1, 2, 1, -1)
    with pytest.raises(ArithmeticError, match="determinant 2"):
        qf._mat_inv_unimodular((2, 0, 0, 1))


def test_quadforms_checks_survive_optimize():
    proc = run_optimized(_CHECKS_UNDER_O)
    assert proc.returncode == 0, proc
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc
    assert "is not a square root" in lines[0]
    assert "is not a change of basis" in lines[1]
    assert "does not close" in lines[2]
    assert "is not unimodular" in lines[3]


def test_solve_norm_computes_the_legendre_symbol_once(monkeypatch):
    # (D/p) decides solvability mod p and licenses the square root, which
    # computes no symbol but those of its search for a non-residue z
    import noether.arith as arith

    own, inner = [], []

    def counting(log):
        def counted(a, n):
            log.append((a, n))
            return jacobi(a, n)
        return counted

    monkeypatch.setattr(qf, "jacobi", counting(own))
    monkeypatch.setattr(arith, "jacobi", counting(inner))
    for p in primes_below(2000)[2:]:
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        search = [(x, p) for x in range(2, z + 1)] if p % 4 == 1 else []
        for D in quadratic_subfield_discs(p - 1):
            for sign in (1, -1):
                own.clear()
                inner.clear()
                dec = solve_norm(D, p, sign)
                definite_minus = D < 0 and sign == -1
                assert own == ([] if definite_minus else [(D % p, p)]), (D, p, sign)
                assert inner in ([], search), (D, p, sign)
                if dec.solvable:
                    x, y = dec.witness
                    assert principal(D).value(x, y) == sign * p
