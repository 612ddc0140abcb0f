import re
from itertools import product
from math import gcd, lcm

import pytest

import noether.abelian as abelian
from noether.abelian import Subgroup, subgroup_elements, subgroups, unit_group
from noether.arith import divisors, euler_phi, factor
from oracles import (
    SUBGROUP_CASES,
    all_subgroups_brute,
    closure,
    hnf_subgroup_closure,
    naive_factor,
    subgroups_exhaustive,
    unit_residues,
)


def test_unit_group_examples():
    assert unit_group(46).cyclic_orders == (22,)
    assert unit_group(8).cyclic_orders == (2, 2)
    assert unit_group(24).cyclic_orders == (2, 2, 2)


def test_unit_group_rejects_small():
    with pytest.raises(ValueError):
        unit_group(2)


def assert_crt_shape(n, g):
    """Each generator of g is ≡ 1 modulo n/q^e for exactly one q^e ∥ n,
    the components of each q^e come together and in the order of the
    primes, one at odd q^e and at 4, none at 2, and at 2^e >= 8 two,
    ≡ -1 and ≡ 3 (mod 2^e) in that order."""
    parts = [q**e for q, e in naive_factor(n)]
    owners = []
    for c in g.generators:
        mine = [m for m in parts if (c - 1) % (n // m) == 0]
        assert len(mine) == 1, (n, c, mine)
        owners.append(mine[0])
    assert owners == sorted(owners, key=parts.index), (n, g.generators)
    for m in parts:
        mine = [c % m for c, owner in zip(g.generators, owners) if owner == m]
        if m % 2:
            assert len(mine) == 1, (n, m, mine)
        else:
            assert mine == {2: [], 4: [3]}.get(m, [m - 1, 3]), (n, m, mine)


def test_unit_group_structure_small():
    for n in range(3, 120):
        g = unit_group(n)
        assert g.order == euler_phi(n)
        assert_crt_shape(n, g)
        # generator orders are exactly the claimed cyclic orders
        for d, gen in zip(g.cyclic_orders, g.generators):
            assert pow(gen, d, n) == 1
            for q in {q for q, _ in factor(d)}:
                assert pow(gen, d // q, n) != 1
        # joint generation
        assert closure(n, g.generators) == frozenset(unit_residues(n))


def test_unit_group_direct_product():
    # every unit is a unique product of generator powers
    for n in range(3, 200):
        g = unit_group(n)
        seen = set()
        exps = [range(d) for d in g.cyclic_orders]
        for combo in product(*exps):
            val = 1
            for e, base in zip(combo, g.generators):
                val = val * pow(base, e, n) % n
            seen.add(val)
        assert len(seen) == g.order, n
        assert seen == set(unit_residues(n)), n


def test_generators_are_the_crt_components():
    for n in range(3, 2001):
        g = unit_group(n)
        assert list(zip(g.cyclic_orders, g.generators)) == abelian._primary_components(n), n
        assert_crt_shape(n, g)


def test_unit_group_checks_hold_on_the_scan_range():
    # every conductor a scan of 2..20000 meets divides some p - 1 < 20000
    for n in range(3, 20000):
        g = unit_group(n)
        assert g.n == n and g.order == euler_phi(n)


def test_subgroup_count_examples():
    assert len(subgroups(unit_group(46))) == 4  # cyclic of order 22
    assert len(subgroups(unit_group(8))) == 5  # C2 x C2
    assert len(subgroups(unit_group(16))) == 8  # C2 x C4: <-1> and <3>
    assert unit_group(16).cyclic_orders == (2, 4)


def test_subgroup_indices_of_cyclic_22():
    idx = sorted(s.index for s in subgroups(unit_group(46)))
    assert idx == [1, 2, 11, 22]


def test_subgroups_max_index():
    g = unit_group(46)
    assert [s.index for s in subgroups(g, max_index=2)] == [1, 2]
    g8 = unit_group(8)
    assert [s.index for s in subgroups(g8, max_index=2)] == [1, 2, 2, 2]


def test_subgroups_deterministic_order():
    g = unit_group(60)
    a = subgroups(g)
    b = subgroups(g)
    assert a == b
    assert [s.index for s in a] == sorted(s.index for s in a)


def test_subgroups_match_exhaustive_enumeration():
    # every candidate HNF tried against diag(d): the same lattices in the
    # same order, capped and uncapped, and a memo hit equals a fresh call
    memo, oracle, keys, calls = {}, {}, set(), 0
    for n in range(3, 2000):
        g = unit_group(n)
        for cap in (1, 2, 3, 4, 6, 8, 12) + ((None,) if n <= 200 else ()):
            c = g.order if cap is None else cap
            ell = lcm(*range(1, c + 1))
            keys.add((c, tuple(gcd(d, ell) for d in g.cyclic_orders)))
            calls += 1
            key = (g.cyclic_orders, cap)  # the oracle's answer depends on no more
            if key not in oracle:
                oracle[key] = subgroups_exhaustive(*key)
            expected = oracle[key]
            assert [h.hnf for h in subgroups(g, cap)] == expected, (n, cap)
            assert [h.hnf for h in subgroups(g, cap, memo)] == expected, (n, cap)
            assert all(h.group is g for h in subgroups(g, cap, memo)), (n, cap)
    # one HNF list per (cap, gcd(d_j, lcm(1..cap))_j), which moduli share
    assert set(memo) == keys
    assert len(keys) < calls


def test_subgroup_memo_is_keyed_by_the_reduced_orders():
    # (Z/4999)* is cyclic of order 4998 = 2·3·7²·17 and (Z/43)* of order
    # 42: both reduce to 42 under lcm(1..8) = 840, so the second call is a
    # hit; at cap 9 (lcm 2520) they reduce alike too, but to another key
    memo = {}
    first = subgroups(unit_group(4999), 8, memo)
    assert list(memo) == [(8, (42,))]
    second = subgroups(unit_group(43), 8, memo)
    assert len(memo) == 1
    assert [h.hnf for h in second] == [h.hnf for h in first]
    assert [h.hnf for h in second] == [h.hnf for h in subgroups(unit_group(43), 8)]
    subgroups(unit_group(43), 9, memo)
    assert len(memo) == 2


def test_elements_examples():
    g = unit_group(23)
    (idx2,) = [s for s in subgroups(g, max_index=2) if s.index == 2]
    assert subgroup_elements(idx2) == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]

    trivial = [s for s in subgroups(g) if s.order == 1]
    assert len(trivial) == 1
    assert subgroup_elements(trivial[0]) == [1]

    g10 = unit_group(10)
    full = [s for s in subgroups(g10) if s.index == 1]
    assert subgroup_elements(full[0]) == [1, 3, 7, 9]


def test_elements_group_closure_property():
    for n in (12, 23, 40, 46):
        g = unit_group(n)
        for s in subgroups(g):
            els = subgroup_elements(s)
            assert 1 in els
            assert len(els) * s.index == euler_phi(n)
            el_set = set(els)
            for a in els:
                for b in els:
                    assert a * b % n in el_set


def test_elements_match_closure_oracle():
    for n, max_index in SUBGROUP_CASES:
        g = unit_group(n)
        for s in subgroups(g, max_index=max_index):
            assert subgroup_elements(s) == hnf_subgroup_closure(n, g.generators, s.hnf), (n, s.hnf)


def test_subgroup_counts_match_brute_force():
    # acceptance criterion upper half lives in test_acceptance; this is the
    # fast sanity slice exercised on every run
    for n in range(3, 64):
        g = unit_group(n)
        ours = subgroups(g)
        brute = all_subgroups_brute(n)
        assert len(ours) == len(brute), n
        assert {frozenset(subgroup_elements(s)) for s in ours} == brute, n


def test_cyclic_group_subgroup_count_is_divisor_count():
    for n in (46, 22, 9, 27, 50):  # (Z/n)* cyclic for these
        g = unit_group(n)
        if len(g.cyclic_orders) == 1:
            assert len(subgroups(g)) == len(divisors(g.order))


# (statement run after `import noether.abelian as abelian`, message)
_BROKEN_GROUPS = {
    # components of total order 2 for (Z/15)*, of order 8
    "product": ("abelian._primary_components = lambda n: [(2, n - 1)]\n"
                "abelian.unit_group.__wrapped__(15)",
                "cyclic orders (2,) of (Z/15)* do not multiply to φ(n)"),
    # 4 has order 2 mod 15, not 4
    "order": ("abelian.UnitGroup(15, (2, 4), (11, 4))",
              "generator 4 of (Z/15)* does not have order 4"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_GROUPS))
def test_unit_group_checks_survive_optimize(case, monkeypatch):
    from optimized import run_optimized

    statement, message = _BROKEN_GROUPS[case]
    code = "import noether.abelian as abelian\n" + statement + "\n"
    # the statement may rebind _primary_components: restored at teardown
    monkeypatch.setattr(abelian, "_primary_components", abelian._primary_components)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        exec(code, {})

    proc = run_optimized(code)
    assert proc.returncode == 1, proc
    assert f"ArithmeticError: {message}" in proc.stderr
