"""Subfields of the n-th cyclotomic field via Gaussian periods.

A subfield's minimal polynomial is the product of its period's conjugates,
evaluated in Z/M for a prime power M in which Φ_f has a root and lifted
to Z through a coefficient bound, so no floating point enters any minimal
polynomial. Exact elements of Z[x]/(x^n - 1) (CycElement) remain for
presenting and checking the generating periods.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from .abelian import Subgroup, subgroup_elements, subgroups, unit_group
from .arith import divisors, euler_phi, factor, is_prime
from .polyops import Poly, discriminant, poly_divmod_monic, poly_mul


@dataclass(frozen=True)
class CycElement:
    """A class in Z[x]/(x^n - 1), i.e. an integer combination of n-th roots
    of unity with exponents mod n."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n:
            raise ValueError("coefficient vector must have length n")

    def __add__(self, other: "CycElement") -> "CycElement":
        self._check(other)
        return CycElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycElement") -> "CycElement":
        self._check(other)
        return CycElement(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "CycElement") -> "CycElement":
        self._check(other)
        n = self.n
        conv = poly_mul(list(self.coeffs), list(other.coeffs))
        out = [0] * n
        for i, c in enumerate(conv):
            out[i % n] += c
        return CycElement(n, tuple(out))

    def scale(self, k: int) -> "CycElement":
        return CycElement(self.n, tuple(k * c for c in self.coeffs))

    def galois_image(self, a: int) -> "CycElement":
        """Image under ζ -> ζ^a, defined for gcd(a, n) = 1."""
        n = self.n
        if gcd(a, n) != 1:
            raise ValueError("galois_image() needs a coprime to n")
        out = [0] * n
        for j, c in enumerate(self.coeffs):
            out[a * j % n] += c
        return CycElement(n, tuple(out))

    def is_zero_value(self) -> bool:
        """True iff the class maps to 0 in Z[ζ_n]."""
        _, rem = poly_divmod_monic(list(self.coeffs), cyclotomic_polynomial(self.n))
        return rem == []

    def _check(self, other: "CycElement") -> None:
        if self.n != other.n:
            raise ValueError("mixed moduli")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """Φ_n as an integer coefficient list, by exact divide-out of x^n - 1."""
    if n == 1:
        return [-1, 1]
    f: Poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            q, r = poly_divmod_monic(f, cyclotomic_polynomial(d))
            assert r == [], "cyclotomic division must be exact"
            f = q
    return f


@dataclass(frozen=True)
class SubfieldDescriptor:
    """A subfield of Q(ζ_n): the fixed field of `subgroup`, presented by the
    minimal polynomial of a primitive Gaussian-period combination.

    period_modulus is the cyclotomic ring the generating period lives in:
    the subfield's conductor, except for the trivial subfield where the
    full modulus is kept so the period stays the classical μ(n)."""

    n: int
    subgroup: Subgroup
    degree: int
    minpoly: tuple[int, ...]
    poly_disc: int
    shape: tuple[int, ...]
    period_modulus: int


def _period_from_residues(modulus: int, residues, shape: tuple[int, ...]) -> CycElement:
    coeffs = [0] * modulus
    for k, c in enumerate(shape, start=1):
        if c:
            for u in residues:
                coeffs[k * u % modulus] += c
    return CycElement(modulus, tuple(coeffs))


def period_element(n: int, h: Subgroup, shape: tuple[int, ...]) -> CycElement:
    """Σ_k shape[k-1] * η^(k) with η^(k) = Σ_{u in h} ζ_n^(k u)."""
    return _period_from_residues(n, subgroup_elements(h), shape)


def conductor(n: int, h: Subgroup) -> int:
    """Smallest f dividing n whose mod-f reduction kernel lies inside h.

    The fixed field of h embeds in Q(ζ_f); returns 1 for the full group.
    Minimality means the result is never ≡ 2 (mod 4): such an f shares its
    kernel with f/2, which divides n and is checked first.
    """
    return _conductor(n, set(subgroup_elements(h)))


def _conductor(n: int, hset: set[int]) -> int:
    """conductor() from the element set of the subgroup."""
    if len(hset) == euler_phi(n):
        return 1
    for f in divisors(n):
        if f < 3 or f == n:
            continue
        if all(u in hset for u in range(1, n, f) if gcd(u, n) == 1):
            return f
    return n


def _reduced_residues(elems: list[int], n: int, modulus: int) -> list[int]:
    """The subgroup with elements `elems` mod n, reduced mod a divisor."""
    if modulus == n:
        return elems
    return sorted({u % modulus for u in elems})


def generating_period(sd: SubfieldDescriptor) -> CycElement:
    """The exact period element whose minimal polynomial is sd.minpoly."""
    pm = sd.period_modulus
    residues = _reduced_residues(subgroup_elements(sd.subgroup), sd.n, pm)
    return _period_from_residues(pm, residues, sd.shape)


def _shape_schedule(max_len: int, budget: int = 100_000):
    """(1), (1,1), (1,2), (1,0,1), (1,0,2), ... ordered by length then lex.

    Lengths may run past the subfield degree: even at the conductor a
    single coset-sum period can be degenerate (rational, or generating a
    proper subfield), so the schedule keeps extending until the budget
    runs out.
    """
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
def _prime_and_root(f: int) -> tuple[int, int]:
    """The least prime ℓ ≡ 1 (mod f), and z of exact order f modulo ℓ."""
    ell = f + 1
    while ell < 1 << 64 and not is_prime(ell):
        ell += f
    if ell >= 1 << 64:
        raise ArithmeticError(f"least prime = 1 mod {f} is not below 2^64")
    cofactors = [f // q for q, _ in factor(f)] if f > 1 else []
    a = 1
    while True:
        z = pow(a, (ell - 1) // f, ell)
        if all(pow(z, c, ell) != 1 for c in cofactors):
            return ell, z
        a += 1


def _root_of_unity_mod(f: int, bound: int) -> tuple[int, int]:
    """(M, z) with M = ℓ^(2^j) > bound for the ℓ of _prime_and_root(f),
    and Φ_f(z) ≡ 0 (mod M).

    z is the Hensel lift, on x^f - 1, of a root of Φ_f modulo ℓ. As
    ℓ ≡ 1 (mod f), ℓ ∤ f: x^f - 1 is separable modulo ℓ and f z^(f-1) is
    a unit, so each Newton step doubles the precision and the lift is
    unique. The other factors Φ_e (e | f, e < f) are units at z, because
    z has exact order f modulo ℓ, so z stays a root of Φ_f.
    """
    ell, z = _prime_and_root(f)
    m = ell
    while m <= bound:
        m *= m
        zf1 = pow(z, f - 1, m)
        z = (z - (z * zf1 - 1) * pow(f * zf1, -1, m)) % m
    return m, z


def _coset_representatives(f: int, residues: list[int]) -> list[int]:
    """The least unit of each coset of the subgroup `residues` of (Z/f)*."""
    seen = bytearray(f)
    reps = []
    for u in range(1, f):
        if not seen[u] and gcd(u, f) == 1:
            reps.append(u)
            for r in residues:
                seen[u * r % f] = 1
    return reps


def subfield_minpoly(n: int, h: Subgroup) -> SubfieldDescriptor:
    """Monic integer minimal polynomial of the fixed field of h.

    The field is first cut down to its conductor f: for imprimitive
    subfields of a non-squarefree modulus every coset-sum period at the
    full modulus vanishes identically (the sum telescopes over reduction
    kernels), while at the conductor the periods are small and faithful.
    There the characteristic polynomial of a period θ is the product of
    x - σ_c(θ) over one c per coset of h, and a nonzero polynomial
    discriminant certifies the period was primitive. Degenerate shapes
    are skipped deterministically.

    The product is formed in Z/M, not in Z[ζ_f]. It is exact: ℓ is a
    proven prime (below 2^64, where is_prime is deterministic) and
    ℓ ≡ 1 (mod f), so ζ_f ↦ z (see _root_of_unity_mod) is a ring map
    Z[ζ_f] → Z/M and carries the integer coefficients to their residues.
    Every conjugate has |σ_c(θ)| <= B = |h| * Σ shape, so the k-th
    coefficient is at most C(d, k) B^k <= (B+1)^d < M/2 in absolute
    value, and the symmetric lift recovers it.
    """
    phi = euler_phi(n)
    d = phi // h.order
    elems = subgroup_elements(h)
    f = n if d == 1 else _conductor(n, set(elems))
    residues = _reduced_residues(elems, n, f)
    if euler_phi(f) != d * len(residues):
        raise ArithmeticError(f"conductor {f} of an index-{d} subgroup mod {n} loses degree")
    reps = _coset_representatives(f, residues)
    if len(reps) != d:
        raise ArithmeticError(f"{len(reps)} cosets of an index-{d} subgroup mod {f}")
    for shape in _shape_schedule(f - 1):
        m, z = _root_of_unity_mod(f, 2 * (len(residues) * sum(shape) + 1) ** d)
        zpow = [1] * f
        for e in range(1, f):
            zpow[e] = zpow[e - 1] * z % m
        g = [1]
        for c in reps:
            eta = sum(s * sum(zpow[c * k * u % f] for u in residues)
                      for k, s in enumerate(shape, start=1) if s)
            g = [(lo - eta * hi) % m for lo, hi in zip([0] + g, g + [0])]
        g = [a - m if 2 * a > m else a for a in g]
        disc = discriminant(g)
        if disc != 0:
            return SubfieldDescriptor(n, h, d, tuple(g), disc, shape, f)
    raise ValueError(
        f"no primitive period combination found for modulus {n}, subgroup "
        f"index {h.index}: schedule budget exhausted at conductor {f}")


def subfields(n: int, max_degree: int, min_degree: int = 1) -> list[SubfieldDescriptor]:
    """One descriptor per subfield of Q(ζ_n) of degree in
    [min_degree, max_degree], ordered by degree then by minimal polynomial
    coefficients. Subfields below min_degree are never built."""
    if n < 3:
        raise ValueError("subfields() requires n >= 3")
    g = unit_group(n)
    out = [subfield_minpoly(n, h) for h in subgroups(g, max_index=max_degree)
           if h.index >= min_degree]
    out.sort(key=lambda s: (s.degree, s.minpoly))
    return out
