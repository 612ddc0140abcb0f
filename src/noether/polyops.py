"""Exact arithmetic on integer polynomials (coefficient lists, low degree
first)."""
from __future__ import annotations

Poly = list[int]


def normalize(p: Poly) -> Poly:
    """Strip trailing zero coefficients; the zero polynomial is []."""
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def degree(p: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(normalize(p)) - 1


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Exact product of integer polynomials (schoolbook)."""
    a = normalize(a)
    b = normalize(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return normalize(out)


def poly_divmod_monic(a: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by monic g, exact over Z."""
    g = normalize(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(a)
    d = len(g) - 1
    if d == 0:
        return normalize(r), []
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                r[i - d + j] -= c * g[j]
    return normalize(q), normalize(r[:d])


def poly_eval(p: Poly, x: int) -> int:
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def derivative(p: Poly) -> Poly:
    return normalize([i * c for i, c in enumerate(p)][1:])


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced by b."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    da = len(a) - 1
    e = da - db + 1
    while len(a) - 1 >= db and a:
        la = a[-1]
        a = [c * lb for c in a]
        shift = len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] -= la * b[j]
        a = normalize(a)
        e -= 1
    if e > 0:
        a = [c * lb**e for c in a]
    return normalize(a)


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) by the subresultant PRS, exact integer arithmetic.

    Every division the recurrence makes is exact in theory; each is checked,
    and a remainder raises ArithmeticError, also under `python -O`.
    """
    a = normalize(f)
    b = normalize(g)
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    s = 1
    if da < db:
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        a, b = b, a
        da, db = db, da
    gg = 1
    hh = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _pseudo_rem(a, b)
        if not r:
            return 0
        a = b
        denom = gg * hh**delta
        if any(c % denom for c in r):
            raise ArithmeticError(f"subresultant remainder is not divisible by {denom}")
        b = [c // denom for c in r]
        gg = a[-1]
        if delta >= 1:
            num = gg**delta
            denom = hh ** (delta - 1)
            if num % denom:
                raise ArithmeticError(f"subresultant scale {num} is not divisible by {denom}")
            hh = num // denom
        if len(b) - 1 == 0:
            da = len(a) - 1  # >= 1: degrees strictly decrease from deg >= 1
            num = b[0] ** da
            denom = hh ** (da - 1)
            if num % denom:
                raise ArithmeticError(f"resultant {num} is not divisible by {denom}")
            return s * (num // denom)


def discriminant(g: Poly) -> int:
    """Discriminant of monic g: (-1)^(d(d-1)/2) * Res(g, g')."""
    g = normalize(g)
    if not g or g[-1] != 1:
        raise ValueError("discriminant() expects a monic polynomial")
    d = len(g) - 1
    if d == 0:
        return 1
    if d == 1:
        return 1
    r = resultant(g, derivative(g))
    return -r if (d * (d - 1) // 2) % 2 else r


def is_squarefree_poly(g: Poly) -> bool:
    """True iff monic g has no repeated complex root."""
    return discriminant(g) != 0
