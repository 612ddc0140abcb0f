"""Unconditional norm-equation decisions over quadratic fields via binary
quadratic forms.

Representability of sign*p by the principal form of discriminant D starts
from one square root of D modulo p; none means sign*p is no norm. For
D < 0 the modified Cornacchia algorithm then decides X^2 + |D| Y^2 = 4p by
one short Euclidean run. For D > 0 a form (sign*p, b, c) of discriminant D
is rho-reduced and looked up in the principal cycle, its witness recovered
by threading the 2x2 change-of-basis matrix through every reduction step.
Every Solvable answer is re-verified by direct evaluation before it is
returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

# divisors is unused here, but scanbench/layers.py wraps it in every module
# that imports it, this one included, so the import stays
from .arith import divisors, factor, is_prime, is_square, sqrt_mod


def fundamental_discriminant(d: int) -> int:
    """The fundamental discriminant D0 with d = f^2 * D0 (d a discriminant)."""
    if d == 0 or d % 4 in (2, 3):
        raise ValueError(f"{d} is not a discriminant")
    d0 = 1
    for q, e in factor(abs(d)):
        if e % 2:
            d0 *= q
    if d < 0:
        d0 = -d0
    if d0 % 4 != 1:
        d0 *= 4
    return d0


@lru_cache(maxsize=None)
def is_fundamental(d: int) -> bool:
    if d == 1 or d == 0:
        return False
    try:
        return fundamental_discriminant(d) == d
    except ValueError:
        return False


def quadratic_subfield_discs(n: int) -> list[int]:
    """Fundamental discriminants of the quadratic subfields of the n-th
    cyclotomic field: exactly the fundamental D != 1 with |D| dividing n.

    A fundamental discriminant is a product of distinct prime
    discriminants q* = ±q ≡ 1 (mod 4) (q odd) and at most one of -4, 8,
    -8; |D| divides n iff each odd q divides n, and 4 | n for -4, 8 | n
    for ±8. So the list is read off the factorisation of n.
    """
    if n < 3:
        raise ValueError("quadratic_subfield_discs() requires n >= 3")
    odd = [1]  # products of the odd prime discriminants
    even = [1]  # at most one even prime discriminant
    for q, e in factor(n):
        if q == 2:
            if e >= 2:
                even.append(-4)
            if e >= 3:
                even += [8, -8]
        else:
            qs = q if q % 4 == 1 else -q
            odd += [d * qs for d in odd]
    # the first product is 1 * 1, the discriminant of Q itself
    return sorted([d * t for t in even for d in odd][1:])


def _principal(D: int) -> tuple[int, int, int]:
    """The norm form of the maximal order of the quadratic field of
    fundamental discriminant D: x^2 - (D/4) y^2 or x^2 + xy - ((D-1)/4) y^2."""
    b = D & 1
    return 1, b, (b - D) // 4


# A rho-step rewrites a form (a, b, c) through a unimodular change of
# basis; the accumulated matrix M = (p, q, r, s) sends coordinates of the new
# form to coordinates of the original one: original(M @ (x, y)) = new(x, y).
# The reduction walks run on plain integer triples and 4-tuples.
Form = tuple[int, int, int]
Mat = tuple[int, int, int, int]

_ID: Mat = (1, 0, 0, 1)


def _is_reduced_indefinite(a: int, b: int, s: int) -> bool:
    """Reduced for D > 0, via s = isqrt(D): 0 < b < sqrt(D) and
    sqrt(D) - b < 2|a| < sqrt(D) + b, all compared exactly."""
    # b < sqrt(D) <=> b <= s unless b*b = D (excluded: D non-square)
    if b <= 0 or b > s:
        return False
    t = 2 * abs(a)
    # sqrt(D) - b < t <=> s - b + 1 <= t (integers, sqrt irrational)
    # t < sqrt(D) + b <=> t <= s + b
    return s - b + 1 <= t <= s + b


def _rho_step(a: int, b: int, c: int, D: int, s: int) -> tuple[int, int, int, int]:
    """One reduction step for indefinite forms: (a, b, c) -> (c, b', c')
    with b' ≡ -b (mod 2c), chosen in the standard window, through the
    matrix (0, -1, 1, k). Returns (c, b', c', k)."""
    ac = abs(c)
    b2 = (-b) % (2 * ac)
    if ac > s:
        # choose b' in (-|c|, |c|]
        if b2 > ac:
            b2 -= 2 * ac
    else:
        # choose the largest b' <= s
        b2 += ((s - b2) // (2 * ac)) * 2 * ac
    c2 = (b2 * b2 - D) // (4 * c)
    k = (b + b2) // (2 * c)
    # (a, b, c) through (0, -1, 1, k) is (c, 2ck - b, a - bk + ck^2)
    if b2 != 2 * c * k - b or c2 != a - b * k + c * k * k:
        raise ArithmeticError(f"rho step of {(a, b, c)} (disc {D}) is not a "
                              f"change of basis by (0, -1, 1, {k})")
    return c, b2, c2, k


def _reduce_indefinite(a: int, b: int, c: int, D: int, s: int) -> tuple[Form, Mat]:
    """rho-steps until the form is reduced; returns (reduced, M) with
    f(M @ z) = reduced(z)."""
    p, q, r, t = _ID
    while not _is_reduced_indefinite(a, b, s):
        a, b, c, k = _rho_step(a, b, c, D, s)
        p, q, r, t = q, k * q - p, t, k * t - r  # M @ (0, -1, 1, k)
    return (a, b, c), (p, q, r, t)


@lru_cache(maxsize=None)
def principal_cycle(D: int) -> dict[Form, Mat]:
    """The rho-cycle of the principal form of a positive non-square
    fundamental discriminant D: every reduced form (a, b, c) properly
    equivalent to it, in cycle order, to the transform M that maps its
    coordinates back to principal-form coordinates, principal(M @ z) =
    form(z)."""
    if D <= 0 or is_square(D) or not is_fundamental(D):
        raise ValueError("principal_cycle() needs a positive non-square "
                         "fundamental discriminant")
    s = isqrt(D)
    # bring the principal form onto the cycle first
    first, m = _reduce_indefinite(*_principal(D), D, s)
    transform_of = {first: m}
    a, b, c = first
    p, q, r, t = m
    limit = 10 * (s + 2) * len(bin(D))
    while True:
        a, b, c, k = _rho_step(a, b, c, D, s)
        p, q, r, t = q, k * q - p, t, k * t - r
        if (a, b, c) == first:
            return transform_of
        transform_of[a, b, c] = (p, q, r, t)
        if len(transform_of) >= limit:
            raise ArithmeticError(f"principal cycle of {D} does not close "
                                  f"within {limit} forms")


@dataclass(frozen=True)
class NormDecision:
    """Outcome of one norm-equation instance N(α) = sign*p."""

    disc: int
    sign: int
    solvable: bool
    witness: tuple[int, int] | None = None


def _verify(D: int, sign: int, p: int, xy: tuple[int, int]) -> None:
    _, b, c = _principal(D)
    x, y = xy
    if x * x + b * x * y + c * y * y != sign * p:
        raise ArithmeticError(
            f"witness check failed: disc {D}, target {sign * p}, xy {xy}")


def solve_norm(D: int, p: int, sign: int) -> NormDecision:
    """Decide x^2 + bxy + cy^2 = sign*p over the integers, with witness.

    Total for odd primes p not dividing fundamental D; never returns an
    unknown verdict. Any other p raises ValueError: the square root below
    is taken modulo a prime.

    For D < 0 and sign +1 this is the modified Cornacchia algorithm (Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, Alg.
    1.5.3): with x = (X - (D mod 2) Y)/2 and y = Y, the equation reads
    X^2 + |D| Y^2 = 4p. Cohen asks |D| < 4p; here |D| >= 4p needs no
    special case. The Euclidean run ends at r <= isqrt(4p), so the quotient
    (4p - r^2)/|D| is never negative, and Y = 0 would need r^2 = 4p, which
    no prime p allows. So |D| would have to divide 4p - r^2, positive and
    below |D|: such D answer unsolvable, as they must.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if p == 2 or not is_prime(p) or D % p == 0:
        raise ValueError(f"solve_norm() requires an odd prime not dividing D, not {p}")

    if D < 0 and sign == -1:
        return NormDecision(D, sign, False)  # positive definite norm form

    # no square root of D mod p: no prime of degree one above p, so no
    # integral element has norm ±p
    b = sqrt_mod(D % p, p)
    if b is None:
        return NormDecision(D, sign, False)
    # the square root of D mod 4p with the parity of D
    if (b - D) % 2:
        b += p
    if (b * b - D) % (4 * p):
        raise ArithmeticError(f"{b} is not a square root of {D} mod {4 * p}")

    if D < 0:
        # Euclid on (2p, b) down to the first remainder r <= sqrt(4p):
        # 4p = X^2 + |D| Y^2 has a solution iff it has one with X = r, that
        # is iff (4p - r^2)/|D| is a square Y^2
        a, r, bound = 2 * p, b, isqrt(4 * p)
        while r > bound:
            a, r = r, a % r
        y2, rest = divmod(4 * p - r * r, -D)
        y = isqrt(y2)
        if rest or y * y != y2:
            return NormDecision(D, sign, False)
        xy = ((r - (D & 1) * y) // 2, y)
    else:
        # a form with leading coefficient sign*p, reduced: sign*p is a norm
        # iff it lies on the principal cycle, the reduced forms of the
        # principal class
        red, m = _reduce_indefinite(sign * p, b, (b * b - D) // (4 * sign * p), D, isqrt(D))
        mp = principal_cycle(D).get(red)
        if mp is None:
            return NormDecision(D, sign, False)
        # cand(M @ z) = red(z) = principal(Mp @ z) and cand(1, 0) = sign*p,
        # so z = M^{-1} @ (1, 0) gives principal(Mp @ z) = sign*p
        inv = _mat_inv_unimodular(m)
        z0, z1 = inv[0], inv[2]
        xy = (mp[0] * z0 + mp[1] * z1, mp[2] * z0 + mp[3] * z1)
    _verify(D, sign, p, xy)
    return NormDecision(D, sign, True, xy)


def _mat_inv_unimodular(m: Mat) -> Mat:
    a, b, c, d = m
    det = a * d - b * c
    if det == 1:
        return (d, -b, -c, a)
    if det == -1:
        return (-d, b, c, -a)
    raise ArithmeticError(f"{m} is not unimodular (determinant {det})")
