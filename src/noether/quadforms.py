"""Unconditional norm-equation decisions over quadratic fields via binary
quadratic forms.

Representability of sign*p by the principal form of discriminant D is
decided by Gauss reduction: build a form (sign*p, b, c) of discriminant D
from a modular square root, reduce, and compare against the reduced
principal form (definite case) or walk the principal cycle (indefinite
case). Witnesses are recovered by threading the 2x2 change-of-basis matrix
through every reduction step, and every Solvable answer is re-verified by
direct evaluation before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

# divisors is unused here, but scanbench/layers.py wraps it in every module
# that imports it, this one included, so the import stays
from .arith import divisors, factor, is_square, jacobi, sqrt_mod_prime


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
    return sorted(d * t for d in odd for t in even if d * t != 1)


@dataclass(frozen=True)
class QuadraticForm:
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def principal_form(D: int) -> QuadraticForm:
    """The norm form of the maximal order of the quadratic field of
    fundamental discriminant D: x^2 - (D/4) y^2 or x^2 + xy - ((D-1)/4) y^2."""
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    b = D & 1
    return QuadraticForm(1, b, (b - D) // 4)


# A reduction step rewrites the form through a unimodular change of basis;
# the accumulated matrix M sends coordinates of the new form to coordinates
# of the original one: original(M @ (x, y)) = new(x, y).
Mat = tuple[int, int, int, int]

_ID: Mat = (1, 0, 0, 1)


def _mat_mul(m: Mat, k: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = k
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _transform(f: QuadraticForm, m: Mat) -> QuadraticForm:
    p, q, r, s = m
    a = f.value(p, r)
    c = f.value(q, s)
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    return QuadraticForm(a, b, c)


def _reduce_definite(f: QuadraticForm) -> tuple[QuadraticForm, Mat]:
    """Gauss reduction of a positive definite form; returns (reduced, M)
    with f(M @ z) = reduced(z)."""
    m = _ID
    a, b, c = f.a, f.b, f.c
    while True:
        if c < a:
            a, b, c = c, -b, a
            m = _mat_mul(m, (0, -1, 1, 0))
            continue
        if b > a or b <= -a:
            # translate x -> x - ky to land b in (-a, a]
            k = (b + a) // (2 * a)
            if b - 2 * k * a == -a:
                k -= 1
            b2 = b - 2 * k * a
            c2 = a * k * k - b * k + c
            b, c = b2, c2
            m = _mat_mul(m, (1, -k, 0, 1))
            continue
        if a == c and b < 0:
            a, b, c = c, -b, a
            m = _mat_mul(m, (0, -1, 1, 0))
            continue
        return QuadraticForm(a, b, c), m


def _is_reduced_indefinite(f: QuadraticForm, s: int) -> bool:
    """Reduced for D > 0, via s = isqrt(D): 0 < b < sqrt(D) and
    sqrt(D) - b < 2|a| < sqrt(D) + b, all compared exactly."""
    a, b = f.a, f.b
    if b <= 0:
        return False
    # b < sqrt(D) <=> b <= s unless b*b = D (excluded: D non-square)
    if b > s:
        return False
    t = 2 * abs(a)
    # sqrt(D) - b < t <=> s - b + 1 <= t (integers, sqrt irrational)
    # t < sqrt(D) + b <=> t <= s + b
    return s - b + 1 <= t and t <= s + b


def _rho_step(f: QuadraticForm, s: int) -> tuple[QuadraticForm, Mat]:
    """One reduction step for indefinite forms: (a,b,c) -> (c, b', c') with
    b' ≡ -b (mod 2c), chosen in the standard window."""
    a, b, c = f.a, f.b, f.c
    ac = abs(c)
    # b' ≡ -b (mod 2|c|), maximal with b' <= s when |c| < s, else in (-|c|, |c|]
    if ac > s:
        # choose b' in (-|c|, |c|]
        b2 = (-b) % (2 * ac)
        if b2 > ac:
            b2 -= 2 * ac
    else:
        # choose largest b' <= s
        b2 = (-b) % (2 * ac)
        b2 += ((s - b2) // (2 * ac)) * 2 * ac
    c2 = (b2 * b2 - f.disc) // (4 * c)
    k = (b + b2) // (2 * c)
    # matrix for (x, y) -> (k x - y? ) : rho = T^k S with S=(0,-1;1,0) effect
    m: Mat = (0, -1, 1, k)
    out = QuadraticForm(c, b2, c2)
    assert _transform(f, m) == out, "rho bookkeeping broken"
    return out, m


@dataclass(frozen=True)
class FormCycle:
    """The cycle of reduced forms properly equivalent to the principal form
    of a positive non-square fundamental discriminant."""

    disc: int
    forms: tuple[QuadraticForm, ...]
    # transform[i] maps coordinates of forms[i] back to principal-form
    # coordinates: principal(M_i @ z) = forms[i](z)
    transforms: tuple[Mat, ...]


@lru_cache(maxsize=None)
def principal_cycle(D: int) -> FormCycle:
    """Full rho-cycle of the principal form, with witness transforms."""
    if D <= 0 or is_square(D) or not is_fundamental(D):
        raise ValueError("principal_cycle() needs a positive non-square "
                         "fundamental discriminant")
    s = isqrt(D)
    f = principal_form(D)
    m = _ID
    # bring the principal form onto the cycle first
    while not _is_reduced_indefinite(f, s):
        f, step = _rho_step(f, s)
        m = _mat_mul(m, step)
    first = f
    forms = [f]
    mats = [m]
    while True:
        f, step = _rho_step(f, s)
        m = _mat_mul(m, step)
        if f == first:
            break
        forms.append(f)
        mats.append(m)
        assert len(forms) < 10 * (s + 2) * (len(bin(D))), "runaway cycle"
    return FormCycle(D, tuple(forms), tuple(mats))


@dataclass(frozen=True)
class NormDecision:
    """Outcome of one norm-equation instance N(α) = sign*p."""

    disc: int
    sign: int
    solvable: bool | None  # True / False; None never occurs here
    witness: tuple[int, int] | None = None

    @property
    def outcome(self) -> str:
        return "Solvable" if self.solvable else "ProvablyUnsolvable"


def _verify(D: int, sign: int, p: int, xy: tuple[int, int]) -> None:
    form = principal_form(D)
    if form.value(*xy) != sign * p:
        raise AssertionError(
            f"witness check failed: disc {D}, target {sign * p}, xy {xy}")


def solve_norm(D: int, p: int, sign: int) -> NormDecision:
    """Decide x^2 + bxy + cy^2 = sign*p over the integers, with witness.

    Total for odd primes p not dividing fundamental D; never returns an
    unknown verdict.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if p == 2 or D % p == 0:
        raise ValueError("solve_norm() requires an odd prime not dividing D")

    # no prime of degree one above p: no integral element has norm ±p
    if jacobi(D % p, p) == -1:
        return NormDecision(D, sign, False)

    if D < 0 and sign == -1:
        return NormDecision(D, sign, False)  # positive definite norm form

    # square root of D mod 4p with the parity of D
    b = sqrt_mod_prime(D % p, p)
    if (b - D) % 2:
        b += p
    assert (b * b - D) % (4 * p) == 0

    if D < 0:
        principal_reduced, _ = _reduce_definite(principal_form(D))
        cand = QuadraticForm(p, b, (b * b - D) // (4 * p))
        red, m = _reduce_definite(cand)
        if red == principal_reduced:
            # principal(z0) = p for z0 = M_principal^{-1}? track instead:
            # cand(1, 0) = p and reduced = cand after basis change; map the
            # representation through the other direction below.
            x, y = _witness_from_chain(D, cand, m)
            _verify(D, sign, p, (x, y))
            return NormDecision(D, sign, True, (x, y))
        return NormDecision(D, sign, False)

    # indefinite: sign*p as leading coefficient, then cycle membership
    # (proper classes of reduced forms are exactly the rho-cycles, disjoint)
    cand = QuadraticForm(sign * p, b, (b * b - D) // (4 * sign * p))
    s = isqrt(D)
    m = _ID
    f = cand
    while not _is_reduced_indefinite(f, s):
        f, step = _rho_step(f, s)
        m = _mat_mul(m, step)
    cyc = principal_cycle(D)
    if f not in cyc.forms:
        return NormDecision(D, sign, False)
    idx = cyc.forms.index(f)
    # principal(M_idx @ z) = f(z) and cand(M @ z) = f(z):
    # cand(1,0) = sign*p, so z with M @ z = (1,0) has f(z)=? invert instead:
    x, y = _witness_indefinite(cyc, idx, m)
    _verify(D, sign, p, (x, y))
    return NormDecision(D, sign, True, (x, y))


def _mat_inv_unimodular(m: Mat) -> Mat:
    a, b, c, d = m
    det = a * d - b * c
    assert det in (1, -1)
    if det == 1:
        return (d, -b, -c, a)
    return (-d, b, c, -a)


def _witness_from_chain(D: int, cand: QuadraticForm, m: Mat) -> tuple[int, int]:
    """Definite case: cand(1,0) = p, cand(M z) = reduced(z) = principal
    after reduction; recover (x, y) with principal(x, y) = p."""
    principal, mp = _reduce_definite(principal_form(D))
    # principal_form(M_p @ z) = principal(z) and cand(M_c @ z) = principal(z)
    # cand represents p at (1,0); express (1,0) in reduced coordinates:
    # (1,0) = M_c @ z  =>  z = M_c^{-1} (1,0); then x,y = M_p @ z
    inv = _mat_inv_unimodular(m)
    z = (inv[0], inv[2])  # first column of M_c^{-1}
    x = mp[0] * z[0] + mp[1] * z[1]
    y = mp[2] * z[0] + mp[3] * z[1]
    return x, y


def _witness_indefinite(cyc: FormCycle, idx: int, m: Mat) -> tuple[int, int]:
    """Indefinite case: cand(M_c z) = f = cyc.forms[idx] =
    principal(M_i z)."""
    inv = _mat_inv_unimodular(m)
    z = (inv[0], inv[2])
    mi = cyc.transforms[idx]
    x = mi[0] * z[0] + mi[1] * z[1]
    y = mi[2] * z[0] + mi[3] * z[1]
    return x, y
