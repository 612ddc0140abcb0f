"""Elementary integer arithmetic: primality, factorization, units of a
given order modulo split primes, power tables and square roots modulo a
prime.

Everything here is exact integer arithmetic; no floating point. Primality is
deterministic for the full range handled by the pipeline (inputs < 2^64).
"""
from __future__ import annotations

from functools import cache
from math import gcd, isqrt

# Deterministic Miller-Rabin witness set, complete for n < 2^64
# (Sinclair's seven-base set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIME_LIMIT = 1_000_000


@cache
def _small_sieve() -> bytearray:
    sieve = bytearray([1]) * _SMALL_PRIME_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(_SMALL_PRIME_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return sieve


def primes_below(limit: int) -> list[int]:
    """All primes < limit, ascending. limit must stay under the sieve bound."""
    if limit > _SMALL_PRIME_LIMIT:
        raise ValueError(f"limit {limit} exceeds sieve bound {_SMALL_PRIME_LIMIT}")
    sieve = _small_sieve()
    return [i for i in range(limit) if sieve[i]]


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^64; from 2^64 on,
    where the witness set proves nothing, ValueError is raised."""
    if n < 2:
        return False
    if n < _SMALL_PRIME_LIMIT:
        return bool(_small_sieve()[n])
    if n >> 64:
        raise ValueError(f"{n} is not below 2^64, where primality is proven")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n with no prime factor < 10^6."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.
    What trial division leaves of n must lie below 2^64 (see is_prime)."""
    if n < 1:
        raise ValueError("factor() requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over residues coprime to 30
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _SMALL_PRIME_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += increments[i]
        i = (i + 1) % 8
    # what survives trial division is prime or a product of large primes
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return sorted(out.items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factor(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def element_of_order(f: int, ell: int) -> int:
    """The first a^((ell - 1)/f), for a = 1, 2, ..., of exact order f
    modulo the prime ell ≡ 1 (mod f).

    Each such power z has z^f = a^(ell - 1) ≡ 1, so its order divides f,
    and it is f iff z^(f/q) ≢ 1 for every prime q | f. A primitive root a
    gives one, so the search ends below ell; at f = ell - 1 it returns the
    least primitive root.
    """
    if f < 1 or (ell - 1) % f:
        raise ValueError(f"element_of_order() requires f >= 1 dividing {ell} - 1")
    cofactors = [f // q for q, _ in factor(f)]
    for a in range(1, ell):
        z = pow(a, (ell - 1) // f, ell)
        if all(pow(z, c, ell) != 1 for c in cofactors):
            return z
    raise ArithmeticError(f"no unit of order {f} modulo {ell}: {ell} is not prime")


def split_prime(m: int, avoid: int = 0) -> tuple[int, int]:
    """The least prime ℓ ≡ 1 (mod m) other than avoid, and
    element_of_order(m, ℓ), of exact order m modulo ℓ. Unless ℓ lies below
    2^64, where is_prime is exact, ArithmeticError is raised first."""
    ell = m + 1
    while ell < 1 << 64 and (ell == avoid or not is_prime(ell)):
        ell += m
    if ell >> 64:
        raise ArithmeticError(f"least prime = 1 mod {m} is not below 2^64")
    return ell, element_of_order(m, ell)


def power_table(z: int, count: int, m: int) -> list[int]:
    """[z^e mod m for 0 <= e < count], each entry from the one before."""
    out = []
    x = 1 % m
    for _ in range(count):
        out.append(x)
        x = x * z % m
    return out


def is_squarefree(n: int) -> bool:
    """True iff no square > 1 divides n (n >= 1)."""
    if n < 1:
        raise ValueError("is_squarefree() requires n >= 1")
    return all(e == 1 for _, e in factor(n))


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negative n is never one)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi() requires odd n >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _sqrt_mod_residue(a: int, p: int) -> int:
    """A square root of a modulo p (Tonelli-Shanks), for an odd prime p and
    a nonzero quadratic residue a mod p, without checking either; the
    caller has decided both."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r
