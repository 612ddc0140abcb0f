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
from functools import lru_cache
from itertools import product
from math import lcm, prod

from .arith import divisors, element_of_order, euler_phi, factor


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

    @property
    def index(self) -> int:
        out = 1
        for i, row in enumerate(self.hnf):
            out *= row[i]
        return out

    @property
    def order(self) -> int:
        return self.group.order // self.index

    def elements(self) -> list[int]:
        return subgroup_elements(self)

    def contains(self, v) -> bool:
        """Does h hold the unit with exponent vector v (over the generators
        of the unit group)?

        Solves sum_i c_i row_i = v in the HNF by forward substitution:
        column m involves only rows i <= m, so c_m is forced and must be an
        integer."""
        coeff = []
        for m, row in enumerate(self.hnf):
            s = v[m]
            for c, above in zip(coeff, self.hnf):
                s -= c * above[m]
            c, r = divmod(s, row[m])
            if r:
                return False
            coeff.append(c)
        return True


def _reduced_orders(d: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """(gcd(d_j, L))_j for L = lcm(1..cap), as lcm{t | d_j : t <= cap}:
    gcd distributes over lcm, so gcd(d_j, L) is the lcm of the gcd(d_j, i)
    over i <= cap, and these are exactly the divisors t <= cap of d_j."""
    return tuple(lcm(*(t for t in divisors(dj) if t <= cap)) for dj in d)


def _hnfs(d: tuple[int, ...], cap: int) -> list[tuple[tuple[int, ...], ...]]:
    """The HNF bases of the lattices of index <= cap between diag(d)·Z^k
    and Z^k, ordered by index then lexicographically.

    Rows are placed from the bottom. Row j has its pivot h_j | d_j in
    column j and entries in [0, h_m) in the columns m > j, and it is kept
    only if d_j·e_j lies in the span of rows j..k-1: rows above j have a
    nonzero entry left of column j, so they cannot take part, and forward
    substitution over columns j+1..k-1 decides it. Once every row is
    placed, every d_j·e_j is in the lattice. A branch stops once the
    product of its pivots exceeds cap.
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
            for tail in product(*(range(rows[m][m]) for m in range(j + 1, k))):
                # d_j e_j - c·row_j must lie in the span of rows j+1..k-1
                coeff = []
                for m in range(j + 1, k):
                    s = -c * tail[m - j - 1] - sum(a * rows[i][m] for a, i in zip(coeff, range(j + 1, m)))
                    if s % rows[m][m]:
                        break
                    coeff.append(s // rows[m][m])
                else:
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


def subgroup_elements(h: Subgroup) -> list[int]:
    """Residues mod n in the subgroup, sorted ascending.

    Let img_i be the residue of HNF row i and m_i = d_i / h_ii. The
    elements are the products of img_i^(c_i), 0 <= c_i < m_i, each met
    exactly once: the basis is upper triangular, so column i of
    sum_j c_j row_j depends only on c_0..c_i, and with c_0..c_(i-1) fixed,
    distinct c_i give distinct values mod d_i. The map is injective and
    both sides have |h| = prod m_i elements.
    """
    g = h.group
    n = g.n
    out = [1]
    for i, row in enumerate(h.hnf):
        img = 1
        for e, base in zip(row, g.generators):
            img = img * pow(base, e, n) % n
        powers = [1]
        for _ in range(g.cyclic_orders[i] // row[i] - 1):
            powers.append(powers[-1] * img % n)
        out = [x * y % n for x in out for y in powers]
    if len(out) != h.order:
        raise ArithmeticError(f"HNF {h.hnf} mod {n} gives {len(out)} elements, not {h.order}")
    return sorted(out)
