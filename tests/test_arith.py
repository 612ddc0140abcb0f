import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.arith import (
    divisors,
    element_of_order,
    euler_phi,
    factor,
    is_prime,
    is_square,
    is_squarefree,
    jacobi,
    power_table,
    primes_below,
    split_prime,
    sqrt_mod,
)
from oracles import _least_prime_and_root, moebius, naive_factor, naive_is_prime, naive_phi


def test_is_prime_agrees_with_sieve_sample():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(19997)
    assert not is_prime(19997 * 19997)


def test_is_prime_answers_only_below_2_64():
    # the seven Miller-Rabin bases prove primality below 2^64 and no further
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not is_prime(2**64 - 1)
    for n in (2**64, 2**64 + 13):
        with pytest.raises(ValueError, match=re.escape(f"{n} is not below 2^64")):
            is_prime(n)


def test_primes_below_counts():
    ps = primes_below(20000)
    assert len(ps) == 2262
    assert ps[0] == 2 and ps[-1] == 19997


def test_primes_below_matches_sympy():
    assert primes_below(10**5) == list(sympy.primerange(2, 10**5))


def test_primes_below_the_sieve_bound():
    ps = primes_below(10**6)
    assert len(ps) == 78498 and ps[-1] == 999983


def test_primes_below_small_limits():
    assert [primes_below(n) for n in (0, 1, 2, 3)] == [[], [], [], [2]]


def test_factor_examples():
    assert factor(19996) == [(2, 2), (4999, 1)]
    assert factor(1) == []
    assert factor(2310) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300)
def test_factor_round_trip(n):
    fac = factor(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert fac == sorted(fac)


def test_factor_matches_naive():
    for n in range(1, 500):
        assert factor(n) == naive_factor(n)


def test_factor_large_semiprime():
    p, q = 10**9 + 7, 10**9 + 9
    assert factor(p * q) == [(p, 1), (q, 1)]


def test_phi_and_moebius():
    for n in range(1, 300):
        assert euler_phi(n) == naive_phi(n)
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_divisors():
    assert divisors(22) == [1, 2, 11, 22]
    assert divisors(1) == [1]
    for n in (12, 360, 8836):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_is_squarefree():
    assert is_squarefree(2310)
    assert not is_squarefree(12)
    assert is_squarefree(1)
    for n in range(1, 200):
        expect = all(n % (d * d) for d in range(2, n))
        assert is_squarefree(n) == expect


def test_is_square():
    squares = {k * k for k in range(200)}
    for n in range(-5, 20000):
        assert is_square(n) == (n in squares)


def test_jacobi_examples():
    assert jacobi(5, 11) == 1
    assert jacobi(2, 15) == 1
    assert jacobi(0, 9) == 0


def test_jacobi_euler_criterion():
    for p in primes_below(300):
        if p == 2:
            continue
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expect = 1 if euler == 1 else -1
            assert jacobi(a, p) == expect


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200)
def test_jacobi_multiplicative(a, b):
    n = 15015  # odd, composite
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_sqrt_mod_prime_examples():
    assert sqrt_mod(5, 11) in (4, 7)
    assert sqrt_mod(2, 7) in (3, 4)
    assert sqrt_mod(10, 13) in (6, 7)  # p ≡ 1 (mod 4): the Tonelli-Shanks loop
    assert sqrt_mod(6, 11) is None
    assert sqrt_mod(5, 13) is None  # t = 5^3 ≡ 8 reaches 1 only after s = 2 squarings
    assert sqrt_mod(0, 13) == 0 and sqrt_mod(0, 11) == 0


def test_sqrt_mod_prime_all_residues():
    # Euler's criterion inside Tonelli-Shanks: None exactly for the
    # non-squares, a root otherwise, for every odd p < 500
    for p in primes_below(500)[1:]:
        for a in range(1, p):
            r = sqrt_mod(a, p)
            if pow(a, (p - 1) // 2, p) == 1:
                assert r is not None and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)


def test_sqrt_mod_prime_large():
    p = 2**61 - 1
    for a in (2, 3, 5, 7):
        r = sqrt_mod(a, p)
        if jacobi(a, p) == 1:
            assert r * r % p == a
        else:
            assert r is None


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=200)
def test_is_prime_has_no_small_factor_witness(n):
    if is_prime(n):
        assert all(n % d for d in range(2, min(n, 100)))
    else:
        if n > 3:
            assert naive_is_prime(n) is False or n < 2


def test_element_of_order_is_the_least_primitive_root():
    for q in primes_below(20000)[1:]:
        assert element_of_order(q - 1, q) == sympy.primitive_root(q), q


def _order(z, ell):
    k, x = 1, z
    while x != 1:
        x, k = x * z % ell, k + 1
    return k


def test_element_of_order_has_exact_order():
    for f in range(1, 25):
        for ell in primes_below(500):
            if ell % f == 1 % f:
                z = element_of_order(f, ell)
                assert _order(z, ell) == f, (f, ell)
                # the first power a^((ell - 1)/f) of exact order f
                first = next(pow(a, (ell - 1) // f, ell) for a in range(1, ell)
                             if _order(pow(a, (ell - 1) // f, ell), ell) == f)
                assert z == first, (f, ell)


def test_element_of_order_rejects_f_not_dividing_ell_minus_1():
    for f, ell in ((0, 7), (4, 7), (5, 13)):
        with pytest.raises(ValueError, match="dividing"):
            element_of_order(f, ell)


def test_split_prime_matches_naive_search():
    for m in range(1, 401):
        assert split_prime(m) == _least_prime_and_root(m), m


def test_split_prime_stays_below_2_64(monkeypatch):
    import noether.arith as arith

    # the prime search gives up before any root of unity is sought
    def no_root(f, ell):
        raise AssertionError("a root of unity was sought")

    monkeypatch.setattr(arith, "element_of_order", no_root)
    with pytest.raises(ArithmeticError, match="2\\^64"):
        split_prime(2**64 - 1)


def test_power_table():
    assert power_table(3, 6, 7) == [1, 3, 2, 6, 4, 5]
    assert power_table(3, 0, 7) == []
    assert power_table(3, 1, 7) == [1]
    # modulo 1 every power is 0, as pow(z, e, 1) is
    assert power_table(3, 4, 1) == [0, 0, 0, 0] == [pow(3, e, 1) for e in range(4)]
    assert power_table(5, 1, 1) == [0]
