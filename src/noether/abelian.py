"""Structure of (Z/nZ)* and enumeration of its subgroups.

The unit group is presented by its CRT component generators: a
primitive root at each odd prime power q^e ∥ n, and at 2^e ∥ n none
(e = 1), 3 (e = 2) or -1 then 3 (e >= 3), each lifted to be 1 modulo the
other prime powers. Their orders d_1, d_2, ... need not form a
divisibility chain, and nothing needs one. Subgroups are
encoded as Hermite-normal-form bases of the integer lattices sitting
between diag(d)*Z^k and Z^k; HNF is canonical per lattice, so enumeration
is duplicate-free by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

from .arith import divisors, element_of_order, euler_phi, factor, power_table


def _primary_components(n: int) -> list[tuple[int, int]]:
    """Cyclic decomposition of (Z/nZ)* as (order, generator mod n) pairs.

    One or two components per prime power q^e ∥ n, in the order of the
    primes, each lifted through CRT to the residue mod n that is 1 modulo
    the other prime powers: a primitive root at odd q; none at 2, -1
    (written 3) at 4, and -1 then 3 at 2^e for e >= 3.
    """
    out = []
    for q, e in factor(n):
        m = q**e
        if q == 2:
            if e == 1:
                gens = []
            elif e == 2:
                gens = [(2, 3)]
            else:
                gens = [(2, m - 1), (2 ** (e - 2), 3)]
        else:
            g = element_of_order(q - 1, q)  # the least primitive root
            if e > 1 and pow(g, q - 1, q * q) == 1:
                g += q
            gens = [(euler_phi(m), g)]
        rest = n // m
        inv = pow(rest, -1, m)
        out += [(order, (1 + rest * ((g - 1) * inv % m)) % n) for order, g in gens]
    return out


@dataclass(frozen=True)
class UnitGroup:
    """(Z/nZ)* presented by the CRT component generators of
    _primary_components(n), in its order: generators[i] has order
    cyclic_orders[i], and each unit is exactly one product ∏ g_i^(c_i),
    0 <= c_i < d_i, as the orders multiply to φ(n) and the generators are
    independent:
    - by CRT, those of different q^e ∥ n are each ≡ 1 modulo the other
      prime powers;
    - at 2^e, <-1> ∩ <3> = 1, because every power of 3 is ≡ 1 (mod 4).
    Construction checks what every subgroup lattice rests on, with raises
    that python -O keeps: the orders multiply to φ(n), and each generator
    has exactly its stated order."""

    n: int
    cyclic_orders: tuple[int, ...]
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.order != euler_phi(self.n):
            raise ArithmeticError(
                f"cyclic orders {self.cyclic_orders} of (Z/{self.n})* do not multiply to φ(n)")
        for d, g in zip(self.cyclic_orders, self.generators):
            if pow(g, d, self.n) != 1 or any(pow(g, d // q, self.n) == 1 for q, _ in factor(d)):
                raise ArithmeticError(f"generator {g} of (Z/{self.n})* does not have order {d}")

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroup:
    """(Z/nZ)* presented by the CRT component generators of
    _primary_components(n) (n >= 3, so there is at least one)."""
    if n < 3:
        raise ValueError("unit_group() requires n >= 3")
    orders, gens = zip(*_primary_components(n))
    return UnitGroup(n, orders, gens)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of (Z/nZ)*, encoded by an upper-triangular HNF basis.

    Rows of hnf are exponent vectors over the generators of the unit group;
    the row lattice contains diag(cyclic_orders)*Z^k. Entry (i, j) for j > i
    lies in [0, hnf[j][j]).
    """

    group: UnitGroup
    hnf: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> int:
        """The product of the HNF pivots, computed once per instance (kept
        out of __eq__ and __hash__, which compare group and hnf only)."""
        return prod(row[i] for i, row in enumerate(self.hnf))

    @property
    def order(self) -> int:
        return self.group.order // self.index

    def elements(self) -> list[int]:
        return subgroup_elements(self)

    def contains(self, v) -> bool:
        """Does h hold the unit with exponent vector v (over the generators
        of the unit group)? Iff _clear_column clears every column of v."""
        for m, row in enumerate(self.hnf):
            v = _clear_column(v, row, m)
            if v is None:
                return False
        return True


def _clear_column(v, row, m: int):
    """v less the multiple of HNF row m that clears column m, or None when
    its pivot does not divide v[m]: rows below m are zero up to column m,
    so with columns 0..m-1 cleared, only row m can clear column m."""
    a, r = divmod(v[m], row[m])
    return None if r else [x - a * y for x, y in zip(v, row)] if a else v


def _reduced_orders(d: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """(gcd(d_j, L))_j for L = lcm(1..cap), as lcm{t | d_j : t <= cap}:
    gcd distributes over lcm, so gcd(d_j, L) is the lcm of the gcd(d_j, i)
    over i <= cap, and these are exactly the divisors t <= cap of d_j."""
    return tuple(lcm(*(t for t in divisors(dj) if t <= cap)) for dj in d)


def _hnfs(d: tuple[int, ...], cap: int) -> list[tuple[tuple[int, ...], ...]]:
    """The HNF bases of the lattices of index <= cap between diag(d)·Z^k
    and Z^k, ordered by index then lexicographically.

    Rows are placed from the bottom. Row j has its pivot h | d_j in column
    j and entries t_m in [0, h_m) in the columns m > j, and d_j·e_j must
    lie in the span of rows j..k-1; rows above j, nonzero left of column j,
    cannot take part, so with c = d_j / h the tail c·t must lie in the span
    of rows j+1..k-1. It is solved column by column, by the reduction of
    Subgroup.contains: with w the residual so far, c·t_m + w_m must be a
    multiple of h_m, so for g = gcd(c, h_m) there is no t_m unless g | w_m,
    and else g of them, t_m ≡ -(w_m / g)·(c / g)^-1 (mod h_m / g). Once
    every row is placed, every d_j·e_j is in the lattice. A branch stops
    once the product of its pivots exceeds cap.
    """
    k = len(d)
    rows: list[tuple[int, ...]] = [()] * k
    found = []

    def place(j: int, index: int) -> None:
        if j < 0:
            found.append((index, tuple(rows)))
            return
        for h in divisors(d[j]):
            if index * h > cap:
                break
            c = d[j] // h
            tails = [((), [0] * k)]  # (tail so far, residual)
            for m in range(j + 1, k):
                row = rows[m]
                g = gcd(c, row[m])
                step = row[m] // g
                inv = pow(c // g, -1, step)
                tails = [(tail + (t,), _clear_column(w[:m] + [w[m] + c * t] + w[m + 1:], row, m))
                         for tail, w in tails if w[m] % g == 0
                         for t in range(-w[m] // g * inv % step, row[m], step)]
            for tail, _ in tails:
                rows[j] = (0,) * j + (h,) + tail
                place(j - 1, index * h)

    place(k - 1, 1)
    found.sort()
    return [hnf for _, hnf in found]


def subgroups(g: UnitGroup, max_index: int | None = None,
              memo: dict | None = None) -> list[Subgroup]:
    """Every subgroup of g exactly once (index <= max_index when given),
    ordered by index ascending then lexicographic HNF.

    A subgroup of index i <= cap holds g^i, hence g^L for L = lcm(1..cap),
    so its lattice contains diag(gcd(d_j, L)), and that lattice contains
    diag(d). The lattices of index <= cap over d are therefore those over
    the reduced orders (gcd(d_j, L))_j, which are enumerated instead. A
    memo, a dict owned by the caller, keeps each HNF list under
    (cap, reduced orders), which determine it; without one every call
    enumerates afresh.
    """
    cap = g.order if max_index is None else max_index
    d = _reduced_orders(g.cyclic_orders, cap)
    if memo is None:
        memo = {}
    if (cap, d) not in memo:
        memo[cap, d] = _hnfs(d, cap)
    return [Subgroup(g, hnf) for hnf in memo[cap, d]]


def _box(bases, sizes, n: int) -> list[int]:
    """∏ b_i^(c_i) mod n over 0 <= c_i < n_i, the last base varying
    fastest."""
    out = [1]
    for base, size in zip(bases, sizes):
        powers = power_table(base, size, n)
        out = [x * y % n for x in out for y in powers]
    return out


def subgroup_elements(h: Subgroup) -> list[int]:
    """Residues mod n in the subgroup, sorted ascending.

    Let img_i be the residue of HNF row i and m_i = d_i / h_ii. The
    elements are the products of img_i^(c_i), 0 <= c_i < m_i, each met
    exactly once: the basis is upper triangular, so column i of
    sum_j c_j row_j depends only on c_0..c_i, and with c_0..c_(i-1) fixed,
    distinct c_i give distinct values mod d_i. The map is injective and
    both sides have |h| = prod m_i elements.
    """
    g, n = h.group, h.group.n
    images = [prod(pow(base, e, n) for e, base in zip(row, g.generators)) % n for row in h.hnf]
    out = _box(images, [d // row[i] for i, (d, row) in enumerate(zip(g.cyclic_orders, h.hnf))], n)
    if len(out) != h.order:
        raise ArithmeticError(f"HNF {h.hnf} mod {n} gives {len(out)} elements, not {h.order}")
    return sorted(out)


def coset_representatives(h: Subgroup) -> list[int]:
    """∏ g_i^(c_i) mod n = h.group.n over 0 <= c_i < hnf[i][i], the g_i the
    generators of the unit group: one unit per coset of h.

    The box of the HNF diagonal is a transversal of the row lattice of an
    upper-triangular basis (reduce an exponent vector column by column;
    two box vectors differing by a lattice vector agree column by column),
    and that lattice is h in exponent form.
    """
    return _box(h.group.generators, [row[i] for i, row in enumerate(h.hnf)], h.group.n)
