"""Subfields of the n-th cyclotomic field via Gaussian periods.

A subfield's minimal polynomial is the product of the conjugates of its
Gaussian period at the conductor, which always generates it (proof in
subfield_minpoly). The product is evaluated in Z/M for a prime power M in
which Φ_n has a root and lifted to Z through a coefficient bound, so no
floating point enters any minimal polynomial. subfields() enumerates
conductor-first: every subfield has one conductor f | n, and the fields of
conductor exactly f are those of the subgroups of (Z/f)* that hold no
reduction kernel, a function of f alone. All fields of one call share
that ring map and one root-of-unity power table per conductor. Exact
elements of Z[x]/(x^n - 1) (CycElement) remain for checking the periods.

A scan that builds the subfields of many moduli can hand subfields() a
FieldStore it owns, in which the fields of each conductor are built once
and then read back (see subfields()).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .abelian import Subgroup, UnitGroup, subgroup_elements, subgroups, unit_group
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
    minimal polynomial of its Gaussian period (see subfield_minpoly).

    period_modulus is the cyclotomic ring the period lives in: the
    subfield's conductor f, except for the trivial subfield where the full
    modulus is kept so the period stays the classical μ(n). subgroup is a
    subgroup of (Z/period_modulus)*: from subfields() it is the subgroup of
    (Z/f)* fixing the field, and subfield_minpoly(n, h) returns the h of
    (Z/n)* it was given."""

    n: int
    subgroup: Subgroup
    degree: int
    minpoly: tuple[int, ...]
    period_modulus: int


def conductor(h: Subgroup) -> int:
    """Smallest f dividing h.group.n whose mod-f reduction kernel lies in h.

    The fixed field of h embeds in Q(ζ_f); returns 1 for the full group.
    Minimality means the result is never ≡ 2 (mod 4): such an f shares its
    kernel with f/2.
    """
    return _conductor(h, _reduction_kernels(h.group))


_Kernels = list[tuple[int, int, list[tuple[int, list[tuple[int, ...]]]]]]


def _reduction_kernels(g: UnitGroup) -> _Kernels:
    """For each q^e ∥ n, the triple (q, e, [(a, gens of K_q(a)), ...]) over
    0 <= a < e (a = 1 left out at q = 2): the generators named in
    _conductor, as exponent vectors over g's generators, built once per
    unit group of a subfields() call."""
    n, d = g.n, g.cyclic_orders

    def power(v: tuple[int, ...], k: int) -> tuple[int, ...]:
        return tuple(x * k % di for x, di in zip(v, d))

    out = []
    for q, e in factor(n):
        rest = n // q**e
        comps = [v for c, v in g.components if (c - 1) % rest == 0]
        if q > 2:
            table = [(0, comps)] + [(a, [power(comps[0], (q - 1) * q ** (a - 1))]) for a in range(1, e)]
        else:
            table = [(0, comps)]
            if e > 2:
                table.append((2, [tuple(x + y for x, y in zip(*comps))]))  # -3 = -1 · 3
            table += [(a, [power(comps[1], 2 ** (a - 2))]) for a in range(3, e)]
        out.append((q, e, table))
    return out


def _conductor(h: Subgroup, kernels: _Kernels) -> int:
    """conductor() from the HNF of h: no element of h is listed.

    For q^e ∥ n and 0 <= a <= e, let K_q(a) be the units u ≡ 1 (mod n/q^e)
    with u ≡ 1 (mod q^a). By CRT the kernel of reduction mod
    f = ∏ q^(b_q) is the product of the K_q(b_q), and a product of
    subgroups lies in h iff each factor does. K_q(a) shrinks as a grows and
    K_q(e) is trivial, so with a_q the least a such that K_q(a) ⊆ h, the
    divisors whose kernel lies in h are those with every b_q >= a_q, and
    ∏ q^(a_q) is the least. A subgroup lies in h iff its generators do, and
    a unit lies in h iff its exponent vector lies in the row lattice of h's
    HNF, which forward substitution decides (Subgroup.contains). The
    generators, from kernels = _reduction_kernels(h.group), are words in
    the CRT component generators of q, the c ≡ 1 (mod n/q^e) of
    UnitGroup.components, whose exponent vectors the unit group records:
    - K_q(0) ≅ (Z/q^e)* is generated by the components of q;
    - at odd q, for 1 <= a < e, K_q(a) is the subgroup of order q^(e-a) of
      the cyclic K_q(0) = <c_q>, so it is generated by c_q^((q-1)q^(a-1));
    - at q = 2, with -1 and 3 the components (-1 alone, written 3, when
      e = 2), K_2(1) = K_2(0) = <-1, 3> as every unit is odd, so a_2 is
      never 1. For a >= 2, a unit u with v₂(u - 1) = a generates the
      cyclic group of the units ≡ 1 (mod 2^a), of order 2^(e-a). So
      K_2(2) = <-3>, as v₂(-3 - 1) = 2, and K_2(a) = <3^(2^(a-2))> for
      3 <= a < e, as v₂(3^(2^m) - 1) = m + 2 for m >= 1.
    """
    f = 1
    for q, e, table in kernels:
        f *= q ** next((a for a, gens in table if all(h.contains(v) for v in gens)), e)
    return f


def _primitive(h: Subgroup, kernels: _Kernels) -> bool:
    """Is the conductor of h the modulus of its group?

    By _conductor it is iff no K_q(a) of the table lies in h, and as K_q(a)
    shrinks when a grows, iff the last of each table does not: K_q(e - 1)
    (K_2(0) = K_2(1) when q^e = 4), or K_q(0) when e = 1, which at q = 2
    has no generator, so no modulus ≡ 2 (mod 4) is ever a conductor."""
    return not any(all(h.contains(v) for v in table[-1][1]) for _, _, table in kernels)


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
    """(M, z) with M = ℓ^j the least power (j >= 1) above bound, ℓ that of
    _prime_and_root(f), and Φ_f(z) ≡ 0 (mod M).

    z is the Hensel lift, on x^f - 1, of a root of Φ_f modulo ℓ. As
    ℓ ≡ 1 (mod f), ℓ ∤ f: x^f - 1 is separable modulo ℓ and f z^(f-1) is
    a unit, so each Newton step doubles the precision (capped at M) and the
    lift is unique. The other factors Φ_e (e | f, e < f) are units at z,
    because z has exact order f modulo ℓ, so z stays a root of Φ_f.
    """
    ell, z = _prime_and_root(f)
    m = ell
    while m <= bound:
        m *= ell
    prec = ell
    while prec < m:
        prec = min(prec * prec, m)
        zf1 = pow(z, f - 1, prec)
        z = (z - (z * zf1 - 1) * pow(f * zf1, -1, prec)) % prec
    return m, z


class _PeriodRing:
    """The ring map Z[ζ_n] → Z/M, ζ_n ↦ z, of one subfields() call, with
    one table of root-of-unity powers per conductor.

    (M, z) comes from _root_of_unity_mod(n, bound): M = ℓ^j is the least
    power of the prime ℓ ≡ 1 (mod n) above the coefficient bound of the
    call, so the period sums and products run on integers no wider than
    the bound needs (129 bits rather than 229 for n = 19948 at degree 12).
    For f | n the image
    w = z^(n/f) of ζ_f has exact order f modulo ℓ, as z has exact order n,
    and w^f = z^n ≡ 1 (mod M). The argument of _root_of_unity_mod, with f
    in place of n, makes w a root of Φ_f modulo M, so ζ_f ↦ w is a ring
    map Z[ζ_f] → Z/M.
    """

    def __init__(self, n: int, bound: int):
        self.n = n
        self.m, self.z = _root_of_unity_mod(n, bound)
        self.tables: dict[int, list[int]] = {}

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
    """Monic integer minimal polynomial of the fixed field K of h.

    K is cut down to its conductor f and presented by the Gaussian period
    η = Σ_{u in H} ζ_f^u, H = Gal(Q(ζ_f)/K) the image of h mod f, whose
    conjugates σ_c(η) are taken over one unit c per coset of H. (At the
    full modulus the period may vanish: ζ_12 + ζ_12^7 = 0 for Q(ζ_3).)
    A caller that knows the conductor passes f and the sorted
    residues of h mod f; subfields() passes h ⊆ (Z/f)* of conductor f,
    with n = f and its elements. For the full group f = n, η = μ(n).

    Theorem: η generates K. Proof. Let G = (Z/f)*, X the characters of G
    trivial on H, and τ_f(χ) = Σ_{a mod f} χ(a) ζ_f^a. The χ-component
    e_χ η, e_χ = |G|^-1 Σ_a χ̄(a) σ_a, is |H| τ_f(χ̄)/|G| for χ in X and 0
    otherwise, and σ_a multiplies it by χ(a). So Stab(η) is the
    annihilator of the group <S> generated by S = {χ in X : τ_f(χ) != 0}
    (τ_f(χ̄) = χ(-1) conj τ_f(χ)), and it is enough that <S> = X.
    - For χ induced from the primitive χ* mod f_χ,
      τ_f(χ) = μ(f/f_χ) χ*(f/f_χ) τ(χ*) with |τ(χ*)|^2 = f_χ (Montgomery
      and Vaughan, Multiplicative Number Theory I, ch. 9): it is nonzero
      iff the q-part of f_χ is q^e for every q^e ∥ f with e >= 2.
    - For such q, the units u ≡ 1 mod q^(e-1) and mod f/q^e form a cyclic
      group U_q of order q, and the χ in X of smaller q-part are those
      trivial on U_q: the kernel of restriction r_q: X → Z/q. It is onto,
      as f, the conductor of K, is the lcm of the f_χ over X.
    - The q are distinct primes, so r = (r_q): X → ∏ Z/q, a cyclic group,
      is onto, and S is the preimage of the tuples with no zero entry.
      Some s in S has r(s) = (1, ..., 1), a generator, and s·ker r ⊆ S,
      so <S> ⊇ ker r and r(<S>) is everything: <S> = X.  ∎

    The product of x - σ_c(η) is formed in Z/M through `ring`, the ring
    map of a subfields() call (a fresh one when none is given). It is
    exact: ℓ is a proven prime (below 2^64, where is_prime is
    deterministic) and ζ_f ↦ z^(n/f) is a ring map Z[ζ_f] → Z/M (see
    _PeriodRing). As |σ_c(η)| <= |H|, the k-th coefficient is at most
    C(d, k) |H|^k <= (|H| + 1)^d < M/2 in absolute value, and the
    symmetric lift recovers it. The theorem is still checked by a plain
    branch, not an assert, so every returned polynomial is proven
    squarefree under python -O too: the images mod M must be pairwise
    distinct, or else the exact discriminant nonzero; otherwise
    ArithmeticError is raised.
    """
    d = h.index
    if f is None or residues is None:
        f = n if d == 1 else conductor(h)
        residues = sorted({u % f for u in subgroup_elements(h)})
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
    bound = 2 * (len(residues) + 1) ** d
    if ring is None:
        ring = _PeriodRing(n, bound)
    m, zpow = ring.m, ring.powers(f)
    if m <= bound:
        raise ValueError(f"ring modulus {m} does not exceed the coefficient bound {bound}")
    images = [sum(zpow[c * u % f] for u in residues) % m for c in reps]
    g = [1]
    for eta in images:
        g = [(lo - eta * hi) % m for lo, hi in zip([0] + g, g + [0])]
    g = [a - m if 2 * a > m else a for a in g]
    if not _pairwise_distinct(images) and discriminant(g) == 0:
        raise ArithmeticError(
            f"the period of an index-{d} subgroup mod {n} at conductor {f} "
            f"has colliding conjugates")
    return SubfieldDescriptor(n, h, d, tuple(g), f)


class FieldStore(dict):
    """The fields of one scan, each built once: a dict from
    (f, min_degree, max_degree) to the list of (h, minimal polynomial)
    over the subfields of conductor exactly f with degree in that range,
    h the subgroup of (Z/f)* fixing the field, and in `lattices` the HNF
    memo that abelian.subgroups keeps for the unit groups of the
    conductors. A scan owns one; nothing in it is global."""

    def __init__(self):
        super().__init__()
        self.lattices: dict = {}


def subfields(n: int, max_degree: int, min_degree: int = 1,
              store: FieldStore | None = None) -> list[SubfieldDescriptor]:
    """One descriptor per subfield of Q(ζ_n) of degree in
    [min_degree, max_degree], ordered by degree then by minimal polynomial
    coefficients (no ties: subfields of an abelian field with one minimal
    polynomial are conjugate, hence equal). Subfields below min_degree are
    never built.

    Conductor-first. By Galois theory in Q(ζ_f), each subfield K ≠ Q of
    Q(ζ_n) has one conductor f | n (f >= 3, f ≢ 2 mod 4) and is the fixed
    field of exactly one subgroup h of (Z/f)*, of conductor f
    (_primitive) and index [K:Q]. The minimal polynomial is the
    characteristic polynomial of the period at f, so the fields of
    conductor f and their minimal polynomials are a function of f and the
    degree range alone; n only fixes the ring map they are computed
    through. A store keeps them under (f, min_degree, max_degree): a
    conductor already in it is read back with no period computed, and the
    others are built through one _PeriodRing of n, sized for the fields
    built, and stored once all of them are. Q itself is the fixed field
    of (Z/n)*, with period μ(n) at modulus n. Without a store, a fresh one
    serves the call.
    """
    if n < 3:
        raise ValueError("subfields() requires n >= 3")
    if max_degree < 1:
        raise ValueError("subfields() requires max_degree >= 1")
    if store is None:
        store = FieldStore()
    todo: list[tuple[int, Subgroup]] = []  # the fields to build: (f, h)
    if min_degree <= 1:
        todo.append((n, subgroups(unit_group(n), 1)[0]))
    conductors = [f for f in divisors(n) if f >= 3 and f % 4 != 2]
    fresh: dict[int, list[tuple[Subgroup, tuple[int, ...]]]] = {}
    for f in conductors:
        if (f, min_degree, max_degree) not in store:
            g = unit_group(f)
            kernels = _reduction_kernels(g)
            fresh[f] = []
            todo += [(f, h) for h in subgroups(g, max_degree, store.lattices)
                     if h.index >= min_degree and _primitive(h, kernels)]
    out = []
    if todo:
        # |h| + 1 bounds the conjugates of each period: one ring for all
        ring = _PeriodRing(n, max(2 * (h.order + 1) ** h.index for _, h in todo))
        for f, h in todo:
            sd = subfield_minpoly(f, h, ring, f, subgroup_elements(h))
            if h.index == 1:  # Q, the only field of index 1
                out.append(sd)
            else:
                fresh[f].append((h, sd.minpoly))
    # stored only once every field of the call is built
    store.update(((f, min_degree, max_degree), fields) for f, fields in fresh.items())
    for f in conductors:
        out += [SubfieldDescriptor(n, h, h.index, minpoly, f)
                for h, minpoly in store[f, min_degree, max_degree]]
    out.sort(key=lambda s: (s.degree, s.minpoly))
    return out
