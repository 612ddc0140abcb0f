"""Unconditional norm-equation decisions over quadratic fields via binary
quadratic forms.

Representability of sign*p by the principal form of discriminant D starts
from one square root of D modulo p; none means sign*p is no norm. For
D < 0 the modified Cornacchia algorithm then decides X^2 + |D| Y^2 = 4p by
one short Euclidean run. For D > 0 a form (sign*p, b, c) of discriminant D
is rho-reduced and looked up, as itself or as its reflection (c, b, a), in
the first half of the principal cycle, which starts at its own reduced form
and maps each form to the matrix that carries the principal form to it.
The candidate carries only its point (1, 0) through the reduction, and that
matrix sends the point, swapped on a reflected hit, to the witness. Every
Solvable answer is re-verified by direct evaluation before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

# divisors is unused here, but scanbench/layers.py wraps it in every module
# that imports it, this one included, so the import stays
from .arith import divisors, factor, is_prime, is_squarefree, sqrt_mod


@lru_cache(maxsize=None)
def is_fundamental(d: int) -> bool:
    """d ≡ 1 (mod 4), d != 1 and |d| squarefree, or d ≡ 8, 12 (mod 16)
    and |d|/4 squarefree."""
    if d % 4 == 1:
        return d != 1 and is_squarefree(abs(d))
    return d % 16 in (8, 12) and is_squarefree(abs(d) // 4)


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


# A rho-step rewrites a form (a, b, c) through the unimodular change of
# basis (0, -1, 1, k); a matrix M = (p, q, r, s) of the cycle sends
# coordinates of its form to principal-form coordinates:
# principal(M @ (x, y)) = form(x, y). The walks run on plain integer
# triples and 4-tuples.
Form = tuple[int, int, int]
Mat = tuple[int, int, int, int]


def _is_reduced_indefinite(a: int, b: int, s: int) -> bool:
    """Reduced for D > 0, via s = isqrt(D): 0 < b < sqrt(D) and
    sqrt(D) - b < 2|a| < sqrt(D) + b, all compared exactly."""
    # b < sqrt(D) <=> b <= s unless b*b = D (excluded: no fundamental D is a square)
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


def _reduce_indefinite(a: int, b: int, c: int, D: int, s: int) -> tuple[Form, tuple[int, int]]:
    """rho-steps until the form is reduced; returns (reduced, v) with
    reduced(v) = a, v the image of the point (1, 0) of the start."""
    v0, v1 = 1, 0
    while not _is_reduced_indefinite(a, b, s):
        a, b, c, k = _rho_step(a, b, c, D, s)
        v0, v1 = k * v0 + v1, -v0  # (0, -1, 1, k)^-1 @ v
    return (a, b, c), (v0, v1)


@lru_cache(maxsize=None)
def principal_cycle(D: int) -> dict[Form, Mat]:
    """The first half of the rho-cycle of the principal form of a positive
    fundamental discriminant D: its first L/2 reduced forms (a, b, c), L
    the cycle length, in cycle order, each to the transform M that maps
    its coordinates back to principal-form coordinates, principal(M @ z) =
    form(z). A reduced form is properly equivalent to the principal form
    iff it or its reflection (c, b, a) is a key.

    Why half suffices: write sigma(a, b, c) = (c, b, a) and F_0 .. F_(L-1)
    for the cycle, F_0 = (1, b, c) below. sigma keeps a form reduced (the
    bounds on 2|a| hold for 2|c| as well), and sigma rho sigma = rho^-1 on
    reduced forms: there |c| <= s, so rho takes the largest b' <= s with
    b' ≡ -b (mod 2c); hence rho^-1 (a', b', c') = (a, b, a') and
    rho (c', b', a') = (a', b, .) with the same b, the largest b <= s with
    b ≡ -b' (mod 2a'). rho (c, b, 1) = (1, b, c), as b is again the largest
    b <= s with b ≡ D (mod 2); so F_(L-1) = rho^-1 F_0 = sigma F_0, and by
    induction sigma F_i = F_(L-1-i). L is even: a reduced form has ac < 0
    and rho moves c to the front, so the sign of the first coefficient
    alternates along the cycle. The walk stores F_0, F_1, .. and stops at
    the first F_m that is the reflection of F_(m-1); as sigma F_m =
    F_(L-1-m) and the forms of the cycle are distinct, that is m = L/2. So
    it keeps F_0 .. F_(L/2-1), and every F_i with i >= L/2 is the
    reflection of the stored F_(L-1-i). A form missing from the half would
    turn into a false "unsolvable" answer; a walk that never meets its stop
    runs into the limit and raises.
    """
    if D <= 0 or not is_fundamental(D):
        raise ValueError("principal_cycle() needs a positive fundamental discriminant")
    s = isqrt(D)
    # the cycle starts at (1, b, c) with b the largest b <= s, b ≡ D (mod 2):
    # reduced, as s - b + 1 <= 2 <= s + b, and the principal form through
    # x -> x + (b - (D mod 2))/2 y
    b = s - (s - D) % 2
    a, c = 1, (b * b - D) // 4
    p, q, r, t = 1, (b - (D & 1)) // 2, 0, 1
    transform_of = {(a, b, c): (p, q, r, t)}
    limit = 10 * (s + 2) * len(bin(D))
    while True:
        last = a, b, c
        a, b, c, k = _rho_step(a, b, c, D, s)
        if (c, b, a) == last:
            return transform_of
        p, q, r, t = q, k * q - p, t, k * t - r
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
        # principal class, that is iff it or its reflection is stored
        red, (v0, v1) = _reduce_indefinite(sign * p, b, (b * b - D) // (4 * sign * p), D, isqrt(D))
        cycle = principal_cycle(D)
        mp = cycle.get(red)
        if mp is None:
            mp = cycle.get(red[::-1])
            if mp is None:
                return NormDecision(D, sign, False)
            # reflection(S @ v) = red(v) for the swap S
            v0, v1 = v1, v0
        # principal(Mp @ v) = red(v) = sign*p
        xy = (mp[0] * v0 + mp[1] * v1, mp[2] * v0 + mp[3] * v1)
    _verify(D, sign, p, xy)
    return NormDecision(D, sign, True, xy)

