"""Subfields of the n-th cyclotomic field via Gaussian periods.

A subfield's minimal polynomial is the product of the conjugates of its
Gaussian period at the conductor f, which always generates it (proof in
subfield_minpoly). The product is evaluated through a ring map
Z[ζ_f] → Z/M, M a prime power in which Φ_f has a root, and lifted to Z
through a coefficient bound, so no floating point enters any minimal
polynomial. subfields() enumerates conductor-first: every subfield has one
conductor f | n and is the fixed field of one subgroup h of (Z/f)* that
holds no reduction kernel, a function of f alone; its descriptor is h with
the minimal polynomial, and subfield_minpoly(h) is the one way to build it.
The fields of one conductor share one ring map of their own, so nothing in
a build depends on n. Exact elements of Z[x]/(x^n - 1) (CycElement) remain
for checking the periods.

A scan that builds the subfields of many moduli can hand subfields() a
FieldStore it owns, made for the scan's degree cap: it lists the subgroups
of each conductor once at that cap, builds a field only when a call asks
for its degree, and reads it back at every later modulus (see subfields()).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import Subgroup, UnitGroup, coset_representatives, subgroup_elements, subgroups, unit_group
from .arith import divisors, factor, power_table, split_prime
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
    """A subfield: the fixed field of `subgroup` ⊆ (Z/f)*, presented by the
    minimal polynomial of its Gaussian period at f (see subfield_minpoly).

    From subfields(), f = subgroup.group.n is the subfield's conductor,
    except for Q, kept as the full (Z/n)* so its period stays μ(n)."""

    subgroup: Subgroup
    minpoly: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.subgroup.index

    @property
    def period_modulus(self) -> int:
        """f, the cyclotomic ring Z[ζ_f] the period lives in."""
        return self.subgroup.group.n


def _top_kernels(g: UnitGroup) -> list[tuple[int, ...]]:
    """For each q^e ∥ n = g.n, a generator of the cyclic group K_q(e - 1)
    as an exponent vector over g's generators: what _primitive tests,
    built once per conductor.

    For 0 <= a <= e, K_q(a) is the group of units u ≡ 1 (mod n/q^e) with
    u ≡ 1 (mod q^a), so K_q(e - 1) is that of the u ≡ 1 (mod n/q). Its
    generator is a word in the components of q, the generators
    c_i ≡ 1 (mod n/q^e) of g, whose exponent vectors are the unit vectors:
    - at odd q, K_q(0) = <c_q>, and for e >= 2 K_q(e - 1) is the subgroup
      of order q of (Z/q^e)* = <c_q>, generated by c_q^((q-1)q^(e-2));
    - at q = 2, with -1 and 3 the components in that order (-1 alone,
      written 3, when e = 2), K_2(0) is trivial (the zero vector) at e = 1
      and K_2(1) = <-1> at e = 2 as every unit is odd.
      For e >= 3, K_2(e - 1) = {1, 1 + 2^(e-1)} is generated by any u with
      v₂(u - 1) = e - 1: by -3 at e = 3, and by 3^(2^(e-3)) for e >= 4,
      as v₂(3^(2^m) - 1) = m + 2 for m >= 1.
    """
    out = []
    for q, e in factor(g.n):
        comps = [i for i, c in enumerate(g.generators) if (c - 1) % (g.n // q**e) == 0]
        v = [0] * len(g.generators)
        if q == 2 and e >= 3:  # -3 = -1 · 3 at e = 3, else 3^(2^(e-3))
            v[comps[0]], v[comps[1]] = int(e == 3), 2 ** (e - 3)
        elif comps:  # none at q^e = 2
            v[comps[0]] = (q - 1) * q ** (e - 2) if q > 2 and e > 1 else 1
        out.append(tuple(v))
    return out


def _primitive(h: Subgroup, kernels: list[tuple[int, ...]]) -> bool:
    """Is n = h.group.n the conductor of h's fixed field, i.e. does h hold
    the kernel of reduction mod no proper divisor of n?

    With K_q(a) as in _top_kernels, the kernel of reduction mod
    f = ∏ q^(b_q) is, by CRT, the product of the K_q(b_q), and a product
    of subgroups lies in h iff each factor does. K_q(a) shrinks as a grows
    and K_q(e) is trivial, so h holds the kernel of some proper divisor iff
    it holds one K_q(e - 1), kernels = _top_kernels(h.group). That cyclic
    group lies in h iff its generator does, which Subgroup.contains decides
    from the generator's exponent vector. As K_2(0) is trivial at q^e = 2,
    no modulus ≡ 2 (mod 4) is ever a conductor."""
    return not any(h.contains(v) for v in kernels)


def _period_ring(f: int, bound: int) -> tuple[int, list[int]]:
    """The ring map Z[ζ_f] → Z/M, ζ_f ↦ z, of one conductor, as
    (M, powers) with powers[e] = z^e mod M for 0 <= e < f (z = powers[1]
    when f > 1).

    M = ℓ^j is the least power (j >= 1) above bound, ℓ that of
    arith.split_prime(f), so the period sums and products run on integers
    no wider than the fields of f need. z is the Hensel lift, on x^f - 1,
    of a root of Φ_f modulo ℓ. As ℓ ≡ 1 (mod f), ℓ ∤ f: x^f - 1 is
    separable modulo ℓ and f z^(f-1) is a unit, so each Newton step
    doubles the precision (capped at M) and the lift is unique. The other
    factors Φ_e (e | f, e < f) are units at z, because z has exact order f
    modulo ℓ, so z stays a root of Φ_f and ζ_f ↦ z is a ring map.
    """
    ell, z = split_prime(f)
    m = ell
    while m <= bound:
        m *= ell
    prec = ell
    while prec < m:
        prec = min(prec * prec, m)
        zf1 = pow(z, f - 1, prec)
        z = (z - (z * zf1 - 1) * pow(f * zf1, -1, prec)) % prec
    return m, power_table(z, f, m)


def _coefficient_bound(h: Subgroup) -> int:
    """2 (|h| + 1)^d, d = [G:h]: twice a bound on the coefficients of the
    minimal polynomial of h's period (see subfield_minpoly), so a ring
    modulus above it recovers each one by the symmetric lift."""
    return 2 * (h.order + 1) ** h.index


def _pairwise_distinct(images: list[int]) -> bool:
    """True if the conjugate images mod M are pairwise distinct: then so
    are the conjugates, and the discriminant is nonzero."""
    return len(set(images)) == len(images)


def subfield_minpoly(h: Subgroup, ring: tuple[int, list[int]] | None = None) -> SubfieldDescriptor:
    """The descriptor (h, minimal polynomial) of the fixed field K of
    h ⊆ (Z/f)*, f = h.group.n, a monic integer polynomial.

    K is presented by the Gaussian period η = Σ_{u in h} ζ_f^u, whose
    conjugates σ_c(η) are taken over one unit c per coset of h.
    subfields() passes, for each field, its subgroup of (Z/f)* at its
    conductor f, and for Q the full (Z/n)*, where η = μ(n).

    Theorem: if f is the conductor of K, η generates K. Proof. Let
    G = (Z/f)*, X the characters of G trivial on h, and
    τ_f(χ) = Σ_{a mod f} χ(a) ζ_f^a. The χ-component e_χ η,
    e_χ = |G|^-1 Σ_a χ̄(a) σ_a, is |h| τ_f(χ̄)/|G| for χ in X and 0
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

    The product of x - σ_c(η) is formed in Z/M through `ring`, the
    (M, powers) of _period_ring(f, ...) that subfields() shares among the
    fields of conductor f (a fresh one, sized for h, when none is given).
    A ring of another conductor f' holds f' powers, not f, and raises
    ValueError: read as powers of ζ_f they would give a wrong polynomial
    that the distinct-roots check need not catch. The product is exact: ℓ
    is a proven prime (below 2^64, where is_prime is deterministic) and
    ζ_f ↦ z is a ring map Z[ζ_f] → Z/M (see _period_ring). As
    |σ_c(η)| <= |h|, the k-th coefficient is at most
    C(d, k) |h|^k <= (|h| + 1)^d < M/2 in absolute value, and the
    symmetric lift recovers it; a ring with M at or below that bound
    raises ValueError. The result does not rest on the theorem,
    which a plain branch, not an assert, checks, so every returned
    polynomial is proven squarefree under python -O too: the images mod M
    must be pairwise distinct, or else the exact discriminant nonzero;
    otherwise ArithmeticError is raised. That is also what an h of
    smaller conductor than f gets when its period collides
    (ζ_12 + ζ_12^7 = 0 for {1, 7} ⊆ (Z/12)*, which fixes Q(ζ_3)).
    """
    f, d = h.group.n, h.index
    residues = subgroup_elements(h)
    reps = coset_representatives(h)
    hset = set(residues)
    for i, a in enumerate(reps):
        a_inv = pow(a, -1, f)
        for b in reps[i + 1:]:
            if b * a_inv % f in hset:
                raise ArithmeticError(
                    f"representatives {a} and {b} of an index-{d} subgroup mod {f} share a coset")
    bound = _coefficient_bound(h)
    m, zpow = _period_ring(f, bound) if ring is None else ring
    if len(zpow) != f:
        raise ValueError(f"a ring of {len(zpow)} powers is not the ring map of conductor {f}")
    if m <= bound:
        raise ValueError(f"ring modulus {m} does not exceed the coefficient bound {bound}")
    images = [sum(zpow[c * u % f] for u in residues) % m for c in reps]
    g = [1]
    for eta in images:
        g = [(lo - eta * hi) % m for lo, hi in zip([0] + g, g + [0])]
    g = [a - m if 2 * a > m else a for a in g]
    if not _pairwise_distinct(images) and discriminant(g) == 0:
        raise ArithmeticError(f"the period of an index-{d} subgroup mod {f} has colliding conjugates")
    return SubfieldDescriptor(h, tuple(g))


class FieldStore(dict):
    """The fields of one scan of degree at most `cap`, each built once: a
    dict from each built field's subgroup h to its descriptor, with three
    memos: `lattices`, the HNF memo of abelian.subgroups at the cap;
    `listed`, the primitive subgroups of index <= cap of each conductor
    met; `rings`, the _period_ring, sized for every field listed there,
    of each conductor of the last modulus asked with a built field. A
    scan owns one; nothing in it is global."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.lattices: dict = {}
        self.listed: dict[int, list[Subgroup]] = {}
        self.rings: dict[int, tuple[int, list[int]]] = {}


def subfields(n: int, max_degree: int, min_degree: int = 1,
              store: FieldStore | None = None) -> list[SubfieldDescriptor]:
    """One descriptor per subfield of Q(ζ_n) of degree in
    [min_degree, max_degree], ordered by degree then by minimal polynomial
    coefficients (no ties: subfields of an abelian field with one minimal
    polynomial are conjugate, hence equal). Only the fields in that range
    are built.

    Conductor-first. By Galois theory in Q(ζ_f), each subfield K ≠ Q of
    Q(ζ_n) has one conductor f | n (f >= 3, f ≢ 2 mod 4) and is the fixed
    field of exactly one subgroup h of (Z/f)*, of conductor f
    (_primitive) and index [K:Q], and its descriptor is (h, the
    characteristic polynomial of the period at f): a function of h alone.
    The store lists the h of each conductor once, at its cap, and builds
    each field the first time a call asks for its degree, through one
    ring of f kept while the calls ask for multiples of f; a field built
    is read back with no period computed, and a build that raises stores
    nothing for its field. A max_degree above the store's cap raises
    ValueError. Q itself is the fixed field of (Z/n)*, with period μ(n)
    at modulus n, built through a ring of its own. Without a store, a
    fresh one of cap max_degree serves the call.
    """
    if n < 3:
        raise ValueError("subfields() requires n >= 3")
    if max_degree < 1:
        raise ValueError("subfields() requires max_degree >= 1")
    if store is None:
        store = FieldStore(max_degree)
    elif max_degree > store.cap:
        raise ValueError(f"max_degree {max_degree} is above the store's cap {store.cap}")
    out = [subfield_minpoly(subgroups(unit_group(n), 1)[0])] if min_degree <= 1 else []
    # a ring holds f powers: keep only those n can use, not every one of the scan
    store.rings = {f: ring for f, ring in store.rings.items() if n % f == 0}
    conductors = [f for f in divisors(n) if f >= 3 and f % 4 != 2]
    for f in conductors:
        if f not in store.listed:
            g = unit_group(f)
            kernels = _top_kernels(g)
            store.listed[f] = [h for h in subgroups(g, store.cap, store.lattices) if _primitive(h, kernels)]
        for h in store.listed[f]:
            if min_degree <= h.index <= max_degree:
                if h not in store:
                    if f not in store.rings:
                        # one ring for every field listed at f
                        store.rings[f] = _period_ring(f, max(map(_coefficient_bound, store.listed[f])))
                    store[h] = subfield_minpoly(h, store.rings[f])
                out.append(store[h])
    out.sort(key=lambda s: (s.degree, s.minpoly))
    return out
