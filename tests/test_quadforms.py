from math import isqrt

import pytest

import noether.quadforms as qf
from noether.arith import jacobi, primes_below, sqrt_mod
from noether.quadforms import (
    is_fundamental,
    principal_cycle,
    quadratic_subfield_discs,
    solve_norm,
)
from oracles import (
    OracleForm,
    is_reduced_indefinite_oracle,
    naive_is_fundamental,
    norm_decision_oracle,
    principal_cycle_oracle,
    principal_form_coeffs,
    quadratic_discs_oracle,
    reduce_indefinite_oracle,
    represents_oracle,
    rho_step_oracle,
)
from optimized import run_optimized


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
    # every D the paper's range meets divides some p - 1 < 20000
    for d in range(-20000, 20001):
        assert is_fundamental(d) == naive_is_fundamental(d), d


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
    # every fundamental D in 5..3000: the stored forms are consecutive
    # rho-steps from (1, b, (b^2 - D)/4), b the largest b <= sqrt(D) with
    # b ≡ D (mod 2), reached from the principal form by
    # x -> x + (b - (D mod 2))/2 y; they are reduced, of discriminant D and
    # distinct; each transform is unimodular and carries the principal form
    # to its form; and the stored forms with their reflections (c, b, a) are
    # the full cycle that oracle rho-steps walk, of which they are half
    for D in _real_fundamental(5, 3000):
        cyc = principal_cycle(D)
        b = max(b for b in range(isqrt(D) + 1) if (b - D) % 2 == 0)
        first, m = next(iter(cyc.items()))
        assert first == (1, b, (b * b - D) // 4), D
        assert m == (1, (b - (D & 1)) // 2, 0, 1), D
        forms = [OracleForm(*f) for f in cyc]
        assert len(set(forms)) == len(forms), D
        for f, g in zip(forms, forms[1:]):
            assert rho_step_oracle(f)[0] == g, (D, f)
        pf = principal(D)
        for f, m in zip(forms, cyc.values()):
            assert f.disc == D and is_reduced_indefinite_oracle(f), (D, f)
            assert m[0] * m[3] - m[1] * m[2] == 1, (D, m)
            assert pf.transform(m) == f, (D, f, m)
        full = principal_cycle_oracle(D)
        assert set(forms) | {OracleForm(f.c, f.b, f.a) for f in forms} == set(full), D
        assert 2 * len(forms) == len(full), D


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
            for _ in range(2 * len(principal_cycle_oracle(D)) + 20):
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
    pairs.sort(key=lambda dp: -len(principal_cycle_oracle(dp[0])))
    for D, p in pairs[:3] + [(2545, 10181), (9489, 18979), (6609, 13219)]:
        assert len(principal_cycle_oracle(D)) >= 50, D
        for sign in (1, -1):
            assert solve_norm(D, p, sign).solvable == norm_decision_oracle(D, sign * p), (D, p, sign)
    assert not solve_norm(2545, 10181, 1).solvable
    assert not solve_norm(9489, 18979, -1).solvable


def test_solve_norm_reflected_lookups_of_the_degree_2_stage():
    # every (D > 0, p, sign) of the quadratic subfields of Q(zeta_{p-1}),
    # 5 <= p < 3000: solve_norm's candidate (sign*p, b, c), b its square
    # root of D mod 4p, reduced by oracle rho-steps, lies on the full oracle
    # cycle iff the answer is solvable, and every witness evaluates to
    # sign*p; some candidates are found only through the reflection of
    # their reduced form
    reflected = 0
    for p in primes_below(3000)[2:]:
        for D in quadratic_subfield_discs(p - 1):
            if D < 0:
                continue
            b = sqrt_mod(D % p, p)
            assert (b is None) == all((x * x - D) % (4 * p) for x in range(D % 2, 2 * p, 2)), (D, p)
            if b is not None and (b - D) % 2:
                b += p
            for sign in (1, -1):
                dec = solve_norm(D, p, sign)
                if b is None:
                    assert not dec.solvable, (D, p, sign)
                    continue
                red = reduce_indefinite_oracle(OracleForm(sign * p, b, (b * b - D) // (4 * sign * p)))
                assert dec.solvable == (red in principal_cycle_oracle(D)), (D, p, sign)
                if dec.solvable:
                    assert principal(D).value(*dec.witness) == sign * p, (D, p, sign)
                    key = (red.a, red.b, red.c)
                    reflected += key not in principal_cycle(D)
    assert reflected > 0


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
    # x^2 + bxy + cy^2 >= 0 for D < 0 decides sign -1 before the square
    # root of D mod p, which is where (D/p) is decided
    def no_root(a, n):
        raise AssertionError(f"sqrt_mod({a}, {n}) computed")

    for p in primes_below(2000)[2:]:
        for D in quadratic_subfield_discs(p - 1):
            if D < 0:
                want = solve_norm(D, p, -1)
                with monkeypatch.context() as m:
                    m.setattr(qf, "sqrt_mod", no_root)
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


def test_solve_norm_decides_every_imaginary_case_of_the_paper_range():
    # every decision of a D < 0 that the scan of 2..20000 can ask, against a
    # complete search: |y| <= sqrt(4p/|D|) for x^2 + bxy + cy^2 = p
    for p in primes_below(20000)[2:]:
        for D in quadratic_subfield_discs(p - 1):
            if D < 0:
                want = represents_oracle(D, p, isqrt(4 * p) + 1) is not None
                assert solve_norm(D, p, 1).solvable == want, (D, p)


def test_solve_norm_imaginary_discriminants_beyond_4p():
    # Cornacchia is stated for |D| < 4p; |D| > 4p must still answer
    # unsolvable, and the sweep crosses that boundary for every p < 100
    for D in range(-400, -2):
        if not is_fundamental(D):
            continue
        for p in primes_below(100)[1:]:
            if D % p:
                dec = solve_norm(D, p, 1)
                assert dec.solvable == (represents_oracle(D, p, isqrt(4 * p) + 1) is not None), (D, p)
                if -D > 4 * p:
                    assert not dec.solvable, (D, p)


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
# a principal cycle that never closes, and a witness that does not evaluate
# to the target ((1, 1) gives 8, not 59).
_CHECKS_UNDER_O = """
import noether.quadforms as qf
from noether.arith import sqrt_mod


def fires(call):
    try:
        call()
    except ArithmeticError as e:
        print(e)
    else:
        raise SystemExit("no ArithmeticError")


qf.sqrt_mod = lambda a, p: sqrt_mod(a, p) + 1
fires(lambda: qf.solve_norm(5, 11, 1))
qf.sqrt_mod = sqrt_mod
fires(lambda: qf._rho_step(1, 1, -1, 13, 3))
rho_step = qf._rho_step
qf._rho_step = lambda a, b, c, D, s: (a, b, c + 1, 0)
fires(lambda: qf.principal_cycle(5))
qf._rho_step = rho_step
fires(lambda: qf._verify(-23, 1, 59, (1, 1)))
"""


def test_wrong_square_root_raises(monkeypatch):
    from noether.arith import sqrt_mod

    monkeypatch.setattr(qf, "sqrt_mod", lambda a, p: sqrt_mod(a, p) + 1)
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


def test_quadforms_checks_survive_optimize():
    proc = run_optimized(_CHECKS_UNDER_O)
    assert proc.returncode == 0, proc
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc
    assert "is not a square root" in lines[0]
    assert "is not a change of basis" in lines[1]
    assert "does not close" in lines[2]
    assert "witness check failed" in lines[3]


def test_solve_norm_computes_no_symbol_of_its_own(monkeypatch):
    # (D/p) is decided by the square root itself (Euler's criterion in the
    # first Tonelli-Shanks step), so the only symbols computed are those of
    # the search for a non-residue z, and that search runs only when p ≡ 1
    # (mod 4), D is a square mod p and a^q ≢ 1 for a = D mod p, p - 1 = q * 2^s
    import noether.arith as arith

    assert not hasattr(qf, "jacobi")
    inner = []

    def counted(a, n):
        inner.append((a, n))
        return jacobi(a, n)

    monkeypatch.setattr(arith, "jacobi", counted)
    for p in primes_below(2000)[2:]:
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        q = p - 1
        while q % 2 == 0:
            q //= 2
        for D in quadratic_subfield_discs(p - 1):
            a = D % p
            searched = p % 4 == 1 and pow(a, (p - 1) // 2, p) == 1 and pow(a, q, p) != 1
            for sign in (1, -1):
                inner.clear()
                dec = solve_norm(D, p, sign)
                definite_minus = D < 0 and sign == -1
                want = [(x, p) for x in range(2, z + 1)] if searched and not definite_minus else []
                assert inner == want, (D, p, sign)
                if dec.solvable:
                    x, y = dec.witness
                    assert principal(D).value(x, y) == sign * p
