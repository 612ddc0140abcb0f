"""Subfields of the n-th cyclotomic field via Gaussian periods.

A subfield's minimal polynomial is the product of its period's conjugates,
evaluated in Z/M for a prime power M in which Φ_n has a root and lifted
to Z through a coefficient bound, so no floating point enters any minimal
polynomial. All subfields of one subfields() call share that ring map and
one root-of-unity power table per conductor. Exact elements of
Z[x]/(x^n - 1) (CycElement) remain for presenting and checking the
generating periods.

A scan that builds the subfields of many moduli can hand subfields() a
field store: a dict it owns, in which each field of conductor below its
modulus is built once and then read back (see subfields()).
"""
from __future__ import annotations

from array import array
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
            if r:
                raise ArithmeticError(f"Φ_{d} does not divide x^{n} - 1 exactly")
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
    kernel with f/2.
    """
    return _conductor(h, set(subgroup_elements(h)))


def _conductor(h: Subgroup, hset: set[int]) -> int:
    """conductor() from the element set of the subgroup, by testing the
    generators of one reduction kernel per prime power of n.

    For q^e ∥ n and 0 <= a <= e, let K_q(a) be the units u ≡ 1 (mod n/q^e)
    with u ≡ 1 (mod q^a). By CRT the kernel of reduction mod
    f = ∏ q^(b_q) is the product of the K_q(b_q), and a product of
    subgroups lies in h iff each factor does. K_q(a) shrinks as a grows, so
    with a_q the least a such that K_q(a) ⊆ h, the divisors whose kernel
    lies in h are those with every b_q >= a_q, and ∏ q^(a_q) is the least.
    A subgroup lies in h iff its generators do, each lifted by CRT to
    ≡ 1 (mod n/q^e):
    - K_q(0) ≅ (Z/q^e)* is generated by the generators of (Z/n)* read
      mod q^e, since reduction mod q^e is onto;
    - K_q(a) is cyclic, generated by 1 + q^a, for 1 <= a < e at odd q and
      for 2 <= a < e at q = 2;
    - K_2(1) = K_2(0), every unit being odd, so a_2 = 1 is never taken;
    - K_q(e) is trivial.
    """
    n = h.group.n
    f = 1
    for q, e in factor(n):
        qe = q**e
        rest = n // qe
        inv = pow(rest, -1, qe)
        a, gens = 0, h.group.generators
        while a < e and not all((1 + rest * ((u - 1) * inv % qe)) % n in hset for u in gens):
            a = 2 if q == 2 and a == 0 else a + 1
            gens = (1 + q**a,)
        f *= q**a
    return f


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


class _PeriodRing:
    """The ring map Z[ζ_n] → Z/M, ζ_n ↦ z, of one subfields() call, with
    one table of root-of-unity powers per conductor.

    (M, z) comes from _root_of_unity_mod(n, bound). For f | n the image
    w = z^(n/f) of ζ_f has exact order f modulo ℓ, as z has exact order n,
    and w^f = z^n ≡ 1 (mod M). The argument of _root_of_unity_mod, with f
    in place of n, makes w a root of Φ_f modulo M, so ζ_f ↦ w is a ring
    map Z[ζ_f] → Z/M.
    """

    def __init__(self, n: int, bound: int):
        self.n = n
        self.m, self.z = _root_of_unity_mod(n, bound)
        self.tables: dict[int, list[int]] = {}

    def lift(self, bound: int) -> None:
        """Make M exceed bound; tables modulo a smaller M are dropped."""
        if self.m <= bound:
            self.m, self.z = _root_of_unity_mod(self.n, bound)
            self.tables.clear()

    def powers(self, f: int) -> list[int]:
        """w^e mod M for 0 <= e < f, w the image of ζ_f."""
        if f not in self.tables:
            self.tables[f] = self._table(f)
        return self.tables[f]

    def _table(self, f: int) -> list[int]:
        m = self.m
        w = pow(self.z, self.n // f, m)
        table = [1] * f
        for e in range(1, f):
            table[e] = table[e - 1] * w % m
        return table


def _box_representatives(h: Subgroup, modulus: int) -> list[int]:
    """∏ g_i^(c_i) mod `modulus` over 0 <= c_i < hnf[i][i], the g_i the
    generators of the unit group: one unit per coset of h.

    The box of the HNF diagonal is a transversal of the row lattice of an
    upper-triangular basis (reduce an exponent vector column by column;
    two box vectors differing by a lattice vector agree column by column),
    and that lattice is h in exponent form. Reduced mod a multiple of the
    conductor, they stay one per coset of the image of h, since h holds
    the kernel of that reduction.
    """
    reps = [1]
    for i, base in enumerate(h.group.generators):
        powers = [1]
        for _ in range(h.hnf[i][i] - 1):
            powers.append(powers[-1] * base % modulus)
        reps = [r * p % modulus for r in reps for p in powers]
    return reps


def _pairwise_distinct(images: list[int]) -> bool:
    """True if the conjugate images mod M are pairwise distinct: then so
    are the conjugates, and the discriminant is nonzero."""
    return len(set(images)) == len(images)


def subfield_minpoly(n: int, h: Subgroup, ring: _PeriodRing | None = None,
                     f: int | None = None, residues: list[int] | None = None) -> SubfieldDescriptor:
    """Monic integer minimal polynomial of the fixed field of h.

    The field is first cut down to its conductor f: for imprimitive
    subfields of a non-squarefree modulus every coset-sum period at the
    full modulus vanishes identically (the sum telescopes over reduction
    kernels), while at the conductor the periods are small and faithful.
    There the characteristic polynomial of a period θ is the product of
    x - σ_c(θ) over one c per coset of h, and θ is primitive iff its
    conjugates are distinct, i.e. iff that product has a nonzero
    discriminant. Degenerate shapes are skipped deterministically.
    A caller that has already cut h down (see _cut) passes f and the
    sorted residues of h mod f.

    The product is formed in Z/M through `ring`, the ring map shared by a
    subfields() call (a fresh one when none is given). It is exact: ℓ is
    a proven prime (below 2^64, where is_prime is deterministic) and
    ζ_f ↦ z^(n/f) is a ring map Z[ζ_f] → Z/M (see _PeriodRing), so it
    carries the integer coefficients to their residues. Every conjugate
    has |σ_c(θ)| <= B = |h_f| * Σ shape, h_f the image of h mod f, so the
    k-th coefficient is at most C(d, k) B^k <= (B+1)^d < M/2 in absolute
    value, and the symmetric lift recovers it. Conjugates with distinct
    images mod M are distinct; only when images meet is the exact
    discriminant computed, so the accepted shape is the first one whose
    discriminant is nonzero. Either test is a plain branch, not an
    assert, so every returned minimal polynomial is proven squarefree.
    """
    d = h.index
    if f is None or residues is None:
        f, residues = _cut(n, h)
    if euler_phi(f) != d * len(residues):
        raise ArithmeticError(f"conductor {f} of an index-{d} subgroup mod {n} loses degree")
    reps = _box_representatives(h, f)
    hset = set(residues)
    for i, a in enumerate(reps):
        a_inv = pow(a, -1, f)
        for b in reps[i + 1:]:
            if b * a_inv % f in hset:
                raise ArithmeticError(
                    f"representatives {a} and {b} of an index-{d} subgroup mod {f} share a coset")
    if ring is None:
        ring = _PeriodRing(n, 2 * (len(residues) + 1) ** d)
    for shape in _shape_schedule(f - 1):
        ring.lift(2 * (len(residues) * sum(shape) + 1) ** d)
        m, zpow = ring.m, ring.powers(f)
        images = [sum(s * sum(zpow[c * k * u % f] for u in residues)
                      for k, s in enumerate(shape, start=1) if s) % m
                  for c in reps]
        g = [1]
        for eta in images:
            g = [(lo - eta * hi) % m for lo, hi in zip([0] + g, g + [0])]
        g = [a - m if 2 * a > m else a for a in g]
        if _pairwise_distinct(images) or discriminant(g) != 0:
            return SubfieldDescriptor(n, h, d, tuple(g), shape, f)
    raise ValueError(
        f"no primitive period combination found for modulus {n}, subgroup "
        f"index {h.index}: schedule budget exhausted at conductor {f}")


def _cut(n: int, h: Subgroup) -> tuple[int, list[int]]:
    """The conductor f of h (n for the full group) and the residues of h
    mod f, sorted."""
    elems = subgroup_elements(h)
    f = n if h.index == 1 else _conductor(h, set(elems))
    return f, _reduced_residues(elems, n, f)


FieldStore = dict[tuple[int, bytes], tuple[tuple[int, ...], tuple[int, ...]]]


def subfields(n: int, max_degree: int, min_degree: int = 1,
              store: FieldStore | None = None) -> list[SubfieldDescriptor]:
    """One descriptor per subfield of Q(ζ_n) of degree in
    [min_degree, max_degree], ordered by degree then by minimal polynomial
    coefficients. Subfields below min_degree are never built.

    With a store, a field of conductor f < n is built at most once per
    store: it is keyed by f and the packed sorted residues of its subgroup
    mod f, and a stored (minpoly, shape) is read back with no period
    computed. That is exact: the minimal polynomial is the characteristic
    polynomial of the period at the conductor, a function of (f, h mod f)
    alone, and the accepted shape is the first primitive one; n, M and
    the coset representatives only change how they are computed. A field
    of conductor n is never stored: its key is the longest of the call,
    and it recurs only at a proper multiple of n, which for the moduli
    p - 1 of a scan is a prime p' = 1 (mod p - 1) with p' >= 2p - 1.
    """
    if n < 3:
        raise ValueError("subfields() requires n >= 3")
    hs = [h for h in subgroups(unit_group(n), max_index=max_degree) if h.index >= min_degree]
    # |h| >= |h_f| and Σ shape = 1 at the first shape: one lift serves
    # every field unless some field needs a longer shape
    bound = max((2 * (h.order + 1) ** h.index for h in hs), default=0)
    ring = None  # built at the first field not in the store
    out = []
    for h in hs:
        f, residues = _cut(n, h)
        key = (f, array("I", residues).tobytes()) if store is not None and f < n else None
        known = store.get(key) if key is not None else None
        if known is not None:
            out.append(SubfieldDescriptor(n, h, h.index, *known, f))
            continue
        if ring is None:
            ring = _PeriodRing(n, bound)
        sd = subfield_minpoly(n, h, ring, f, residues)
        if key is not None:
            store[key] = (sd.minpoly, sd.shape)
        out.append(sd)
    out.sort(key=lambda s: (s.degree, s.minpoly))
    return out
