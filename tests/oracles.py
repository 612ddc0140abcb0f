"""Independent brute-force oracles shared by the test suite.

Each oracle is written against the mathematical definition only, with no
imports from the package modules it checks. Slow on purpose where slowness
buys obviousness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

import mpmath
import numpy as np
import sympy


# --------------------------------------------------------------------- arith
def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def naive_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def moebius(n: int) -> int:
    """μ(n): 0 unless n is squarefree, else (-1)^(number of prime factors)."""
    exponents = [e for _, e in naive_factor(n)]
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


# ------------------------------------------------------------------- abelian
def unit_residues(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


def closure(n: int, gens: tuple[int, ...]) -> frozenset[int]:
    """Multiplicative closure of gens in (Z/nZ)*."""
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def extend_subgroup(n: int, s: frozenset[int], g: int) -> frozenset[int]:
    """Subgroup generated by the subgroup s together with one extra unit g.

    Walks the cosets s, s*g, s*g^2, ... until a power of g lands back in
    s; their union is the generated subgroup since the group is abelian.
    """
    out = set(s)
    x = g
    while x not in s:
        out.update(y * x % n for y in s)
        x = x * g % n
    return frozenset(out)


def all_subgroups_brute(n: int) -> set[frozenset[int]]:
    """Every subgroup of (Z/nZ)*, by breadth-first generator extension.

    Start from the trivial subgroup and repeatedly extend (found subgroup
    plus one more element).  Every subgroup is reachable this way because
    it can be built by adjoining its generators one at a time, so the
    enumeration is exhaustive regardless of rank.
    """
    us = unit_residues(n)
    trivial = closure(n, ())
    subs = {trivial}
    frontier = [trivial]
    while frontier:
        s = frontier.pop()
        for g in us:
            if g not in s:
                bigger = extend_subgroup(n, s, g)
                if bigger not in subs:
                    subs.add(bigger)
                    frontier.append(bigger)
    return subs


# (n, max index) pairs whose subgroups are checked against the oracles
# below: every subgroup of small moduli, and index <= 12 at large moduli near
# the top of the scanned range (8836 = 4 * 47^2 has imprimitive subfields)
SUBGROUP_CASES = [(n, None) for n in range(3, 301)] + [(n, 12) for n in (19926, 19948, 19996, 8836)]


def _contains_diagonal(hnf: list[list[int]], d: tuple[int, ...]) -> bool:
    """Does the row lattice of hnf contain every d_j * e_j?"""
    k = len(d)
    for j in range(k):
        # solve sum_i c_i row_i = d_j e_j by forward substitution; rows
        # i < j contribute nothing (their pivot columns would be nonzero)
        if d[j] % hnf[j][j]:
            return False
        coeff = [0] * k
        coeff[j] = d[j] // hnf[j][j]
        for m in range(j + 1, k):
            s = sum(coeff[i] * hnf[i][m] for i in range(j, m))
            if s % hnf[m][m]:
                return False
            coeff[m] = -(s // hnf[m][m])
    return True


def subgroups_exhaustive(d: tuple[int, ...], max_index: int | None = None) -> list[tuple[tuple[int, ...], ...]]:
    """The HNF bases of the lattices between diag(d)·Z^k and Z^k (index <=
    max_index when given), ordered by index then lexicographically: every
    upper-triangular candidate with pivots h_j | d_j and entries in
    [0, h_m) above pivot m, kept when it contains diag(d)."""
    k = len(d)
    cap = max_index if max_index is not None else 1
    if max_index is None:
        for x in d:
            cap *= x
    found = []
    for diag in product(*([h for h in range(1, x + 1) if x % h == 0] for x in d)):
        idx = 1
        for h in diag:
            idx *= h
        if idx > cap:
            continue
        off_ranges = [range(diag[j]) for i in range(k) for j in range(i + 1, k)]
        for offs in product(*off_ranges):
            hnf = [[0] * k for _ in range(k)]
            pos = 0
            for i in range(k):
                hnf[i][i] = diag[i]
                for j in range(i + 1, k):
                    hnf[i][j] = offs[pos]
                    pos += 1
            if _contains_diagonal(hnf, d):
                found.append((idx, tuple(tuple(r) for r in hnf)))
    found.sort()
    return [hnf for _, hnf in found]


def hnf_subgroup_closure(n: int, generators, hnf) -> list[int]:
    """Elements of the subgroup of (Z/nZ)* whose exponent lattice over
    `generators` has the rows of `hnf` as a basis: the breadth-first
    closure of the rows' images, sorted."""
    images = []
    for row in hnf:
        img = 1
        for e, g in zip(row, generators):
            img = img * pow(g, e, n) % n
        images.append(img)
    return sorted(closure(n, tuple(images)))


def conductor_oracle(n: int, elems) -> int:
    """The least f | n such that every unit u ≡ 1 (mod f) lies in the
    subgroup with elements `elems`."""
    hset = set(elems)
    units = unit_residues(n)
    for f in range(1, n + 1):
        if n % f == 0 and all(u in hset for u in units if u % f == 1 % f):
            return f
    raise AssertionError("unreachable: f = n always qualifies")


# ------------------------------------------------------------------ quadforms
@lru_cache(maxsize=None)
def _squarefree(m: int) -> bool:
    return all(e == 1 for _, e in naive_factor(abs(m)))


def naive_is_fundamental(d: int) -> bool:
    """D != 1 with D ≡ 1 (mod 4) squarefree, or D = 4m with m ≡ 2, 3
    (mod 4) squarefree."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def quadratic_discs_oracle(n: int) -> list[int]:
    """Fundamental D with |D| dividing n, by testing ±m for every divisor m."""
    small = [m for m in range(1, isqrt(n) + 1) if n % m == 0]
    divs = set(small) | {n // m for m in small}
    return sorted(d for m in divs for d in (m, -m) if naive_is_fundamental(d))


def principal_form_coeffs(D: int) -> tuple[int, int, int]:
    b = D & 1
    return 1, b, (b - D) // 4


@dataclass(frozen=True)
class OracleForm:
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, m: tuple[int, int, int, int]) -> "OracleForm":
        """The form z -> self(M @ z), by substitution."""
        p, q, r, s = m
        b = 2 * self.a * p * q + self.b * (p * s + q * r) + 2 * self.c * r * s
        return OracleForm(self.value(p, r), b, self.value(q, s))


def rho_step_oracle(f: OracleForm) -> tuple[OracleForm, tuple[int, int, int, int]]:
    """One reduction step for an indefinite form: b' ≡ -b (mod 2|c|), in
    (-|c|, |c|] when |c| > sqrt(D), else the largest b' <= sqrt(D); the new
    form is f through M = (0, -1, 1, k) with k = (b + b') / 2c, by
    substitution."""
    s = isqrt(f.disc)
    ac = abs(f.c)
    b2 = (-f.b) % (2 * ac)
    if ac > s:
        if b2 > ac:
            b2 -= 2 * ac
    else:
        b2 += ((s - b2) // (2 * ac)) * 2 * ac
    k, r = divmod(f.b + b2, 2 * f.c)
    assert r == 0
    m = (0, -1, 1, k)
    out = f.transform(m)
    assert out == OracleForm(f.c, b2, out.c) and out.disc == f.disc
    return out, m


def is_reduced_indefinite_oracle(f: OracleForm) -> bool:
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, by squaring."""
    D, t = f.disc, 2 * abs(f.a)
    return 0 < f.b and f.b * f.b < D and (t + f.b) ** 2 > D and (t - f.b < 0 or (t - f.b) ** 2 < D)


def reduce_indefinite_oracle(f: OracleForm) -> OracleForm:
    """Oracle rho-steps until f is reduced."""
    while not is_reduced_indefinite_oracle(f):
        f = rho_step_oracle(f)[0]
    return f


@lru_cache(maxsize=None)
def principal_cycle_oracle(D: int) -> tuple[OracleForm, ...]:
    """The full rho-cycle of the principal form of D > 0, in cycle order:
    oracle rho-steps from the principal form until it is reduced, then
    until the walk returns to that first reduced form."""
    first = reduce_indefinite_oracle(OracleForm(*principal_form_coeffs(D)))
    cycle = [first]
    while (f := rho_step_oracle(cycle[-1])[0]) != first:
        cycle.append(f)
    return tuple(cycle)


def norm_decision_oracle(D: int, target: int) -> bool:
    """Whether x^2 + bxy + cy^2 = target (the principal form of D > 0) has
    an integer solution, decided by sympy's diop_DN on u^2 - D v^2 =
    4 target: u = 2x + by, v = y, so a solution (u, v) gives one of the
    form iff u ≡ bv (mod 2), b = D mod 2."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    return any((u - D * v) % 2 == 0 for u, v in diop_DN(D, 4 * target))


def nagell_search(D: int, target: int, unit: tuple[int, int]) -> tuple[int, int] | None:
    """A solution of x^2 + bxy + cy^2 = target > 0 (principal form of
    D > 0), or None if there is none.

    With u = 2x + by, v = y this is u^2 - D v^2 = N = 4 target; every
    solution has u ≡ bv (mod 2), as u^2 ≡ D v^2 (mod 4). For a unit
    ε = x1 + y1 sqrt(D) of norm 1, x1 > 1, Nagell (Introduction to Number
    Theory, Thm. 108) puts a member of every class of solutions under ε at
    0 <= v <= y1 sqrt(N) / sqrt(2 (x1 + 1)). So a search of v up to that
    bound decides the equation.
    """
    x1, y1 = unit
    N = 4 * target
    assert target > 0 and x1 > 1 and x1 * x1 - D * y1 * y1 == 1
    b = D % 2
    # v^2 <= y1^2 N / (2 (x1 + 1))
    vmax = isqrt(y1 * y1 * N // (2 * (x1 + 1))) + 1
    for v in range(vmax + 1):
        u2 = N + D * v * v
        u = isqrt(u2)
        if u * u == u2 and (u - b * v) % 2 == 0:
            return (u - b * v) // 2, v
    return None


def represents_oracle(D: int, target: int, bound: int) -> tuple[int, int] | None:
    """Search x^2 + bxy + cy^2 = target over |x|, |y| <= bound.

    Vectorized over y: for fixed y the form is quadratic in x with
    discriminant D y^2 + 4 t; x exists iff that is a perfect square with the
    right parity. Exact because every intermediate fits well under 2^53.
    """
    _, b, c = principal_form_coeffs(D)
    ys = np.arange(-bound, bound + 1, dtype=np.int64)
    disc = D * ys * ys + 4 * target
    ok = disc >= 0
    if not ok.any():
        return None
    roots = np.sqrt(disc[ok].astype(np.float64))
    r = np.rint(roots).astype(np.int64)
    exact = r * r == disc[ok]
    for y, rr in zip(ys[ok][exact], r[exact]):
        for s in (rr, -rr):
            num = s - b * y
            if num % 2 == 0:
                x = num // 2
                if abs(x) <= 10 * bound and x * x + b * x * y + c * y * y == target:
                    return int(x), int(y)
    return None


# ------------------------------------------------------------------- polyops
def poly_add_oracle(a: list[int], b: list[int]) -> list[int]:
    """Coefficient-wise sum, trailing zeros stripped."""
    out = [x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
    while out and out[-1] == 0:
        out.pop()
    return out


# ----------------------------------------------------------------- normsearch
def companion_det_norm(g: list[int], a: list[int]) -> int:
    """Norm of a mod g as det of a's action on Z[x]/(g), via Bareiss.

    g is monic (leading coefficient 1), given low-to-high; a low-to-high of
    length < deg g.
    """
    d = len(g) - 1
    assert g[-1] == 1
    # companion matrix C of g: columns are multiplication-by-x images
    cols = []
    for j in range(d):
        col = [0] * d
        if j + 1 < d:
            col[j + 1] = 1
        else:
            col = [-g[i] for i in range(d)]
        cols.append(col)

    def mat_mul_vec(m, v):
        return [sum(m[i][j] * v[j] for j in range(d)) for i in range(d)]

    # matrix of multiplication by a(C): build columns a(C) e_j
    mat_c = [[cols[j][i] for j in range(d)] for i in range(d)]
    basis = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    acc = [[0] * d for _ in range(d)]
    power = basis
    coeffs = list(a) + [0] * (d - len(a))
    for k in range(d):
        for j in range(d):
            for i in range(d):
                acc[i][j] += coeffs[k] * power[j][i]
        power = [mat_mul_vec(mat_c, col) for col in power]

    # Bareiss fraction-free elimination for the exact determinant
    m = [row[:] for row in acc]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, d):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def prime_family(g: list[int], target: int, bound: int):
    """Every element 1 + a*x^i + b*x^j of Z[x]/(g) that lies in the prime
    (q, x - r): q = |target|, r the least nonzero root of g mod q, m its
    multiplicative order, 0 < i < j < m, and a, b nonzero in [-bound, bound]
    with b not divisible by q.

    Yields the reduced coefficients (length deg g) in the order of
    (i, a, b, j), each ascending; membership is tested by evaluating at r
    and the element is reduced mod g by long division.
    """
    q, d = abs(target), len(g) - 1
    roots = [x for x in range(1, q) if sum(c * x**k for k, c in enumerate(g)) % q == 0]
    if not roots:
        return
    r = roots[0]
    m = 1
    while pow(r, m, q) != 1:
        m += 1
    coeffs = [c for c in range(-bound, bound + 1) if c]
    for i in range(1, m):
        for a in coeffs:
            for b in coeffs:
                if b % q == 0:
                    continue
                for j in range(i + 1, m):
                    if (1 + a * r**i + b * r**j) % q:
                        continue
                    poly = [1] + [0] * j
                    poly[i] += a
                    poly[j] += b
                    for top in range(j, d - 1, -1):  # poly mod g
                        c = poly[top]
                        for k in range(d + 1):
                            poly[top - d + k] -= c * g[k]
                    yield tuple((poly + [0] * d)[:d])


def prime_family_first_hit(g: list[int], target: int, bound: int) -> tuple[int, ...] | None:
    """First member of `prime_family` whose norm is target.

    No pruning: every member is tried, and its norm is `companion_det_norm`.
    """
    for alpha in prime_family(g, target, bound):
        if companion_det_norm(g, list(alpha)) == target:
            return alpha
    return None


# ---------------------------------------------------------------- cyclotomic
@lru_cache(maxsize=4)
def _roots_of_unity(f: int, dps: int) -> list:
    """exp(2πi e/f) for e = 0..f-1, using ζ^(f-e) = conj(ζ^e)."""
    roots = [mpmath.mpc(1)] * f
    with mpmath.workdps(dps):
        for e in range(1, f // 2 + 1):
            roots[e] = mpmath.expjpi(mpmath.mpf(2 * e) / f)
            roots[f - e] = mpmath.conj(roots[e])
    return roots


def coset_representatives_oracle(f: int, residues) -> list[int]:
    """The least unit of each coset of the subgroup `residues` of (Z/fZ)*."""
    reps: list[int] = []
    covered: set[int] = set()
    for c in unit_residues(f):
        if c not in covered:
            reps.append(c)
            covered.update(c * u % f for u in residues)
    return reps


def period_charpoly_oracle(f: int, residues, shape) -> list[int]:
    """Characteristic polynomial over Q, low degree first, of the period
    θ = Σ_k shape[k-1] Σ_{u in residues} ζ_f^(k u), residues being a
    subgroup of (Z/fZ)*.

    Its roots are the conjugates σ_c(θ), one unit c per coset of the
    subgroup, each summed in the complex embedding ζ_f = exp(2πi/f). The
    working precision covers the coefficient bound (|H| Σ|shape| + 1)^d
    with 30 digits to spare, and the product is rounded to integers.
    """
    h = sorted(set(residues))
    reps = coset_representatives_oracle(f, h)
    bound = (len(h) * sum(abs(s) for s in shape) + 1) ** len(reps)
    dps = -(-(len(str(bound)) + 30) // 50) * 50  # shares roots between fields
    with mpmath.workdps(dps):
        roots = _roots_of_unity(f, dps)
        poly = [mpmath.mpc(1)]
        for c in reps:
            eta = mpmath.fsum(s * roots[c * k * u % f]
                              for k, s in enumerate(shape, start=1) if s for u in h)
            poly = [lo - eta * hi for lo, hi in zip([0] + poly, poly + [0])]
        out = [int(mpmath.nint(c.real)) for c in poly]
        if any(abs(c - r) > 1e-10 for c, r in zip(poly, out)):
            raise ArithmeticError("characteristic polynomial is not integral")
    return out


def _shapes_oracle(max_len: int, budget: int = 100_000):
    """Period shapes (1), (1,1), (1,2), (1,0,1), ...: by length, then in
    lexicographic order, each ending in a nonzero entry."""
    yield (1,)
    count = 1
    for m in range(2, max_len + 1):
        for prefix in product((0, 1, 2), repeat=m - 2):
            for last in (1, 2):
                yield (1,) + prefix + (last,)
                count += 1
                if count >= budget:
                    return


@lru_cache(maxsize=None)
def _least_prime_and_root(f: int) -> tuple[int, int]:
    """The least prime ℓ ≡ 1 (mod f) and the first a^((ℓ-1)/f) of exact
    order f modulo ℓ, a = 1, 2, ..."""
    ell = f + 1
    while not naive_is_prime(ell):
        ell += f
    cofactors = [f // q for q, _ in naive_factor(f)]
    a = 1
    while True:
        z = pow(a, (ell - 1) // f, ell)
        if all(pow(z, c, ell) != 1 for c in cofactors):
            return ell, z
        a += 1


def subfield_minpoly_oracle(n: int, elems) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """(degree, minimal polynomial, shape, period modulus) of the fixed
    field of the subgroup with elements `elems` of (Z/nZ)*, built field by
    field with nothing shared.

    The period modulus f is the conductor (n for the full group). For each
    shape in turn, a root z of Φ_f is Hensel-lifted from the least prime
    ℓ ≡ 1 (mod f) to M = ℓ^(2^j) > 2 (|h_f| Σ shape + 1)^d, every power of
    z up to z^(f-1) is tabled, the period's conjugates, one per coset
    (least unit), are multiplied out in Z/M and lifted symmetrically, and
    the shape is taken when sympy's exact discriminant is nonzero.
    """
    d = naive_phi(n) // len(elems)
    f = n if d == 1 else conductor_oracle(n, elems)
    residues = sorted({u % f for u in elems})
    reps = coset_representatives_oracle(f, residues)
    ell, root = _least_prime_and_root(f)
    x = sympy.symbols("x")
    for shape in _shapes_oracle(f - 1):
        bound = 2 * (len(residues) * sum(shape) + 1) ** d
        m, z = ell, root
        while m <= bound:
            m *= m
            zf1 = pow(z, f - 1, m)
            z = (z - (z * zf1 - 1) * pow(f * zf1, -1, m)) % m
        zpow = [1] * f
        for e in range(1, f):
            zpow[e] = zpow[e - 1] * z % m
        g = [1]
        for c in reps:
            eta = sum(s * zpow[c * k * u % f]
                      for k, s in enumerate(shape, start=1) for u in residues)
            g = [(lo - eta * hi) % m for lo, hi in zip([0] + g, g + [0])]
        g = [a - m if 2 * a > m else a for a in g]
        if sympy.discriminant(sympy.Poly(g[::-1], x)) != 0:
            return d, tuple(g), shape, f
    raise AssertionError(f"no primitive shape for modulus {n}")
