import re
from math import gcd

import pytest

import noether.abelian as abelian
from noether.abelian import Subgroup, subgroup_elements, subgroups, unit_group
from noether.arith import divisors, euler_phi, factor
from oracles import (
    SUBGROUP_CASES,
    all_subgroups_brute,
    closure,
    hnf_subgroup_closure,
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


def test_unit_group_structure_small():
    for n in range(3, 120):
        g = unit_group(n)
        assert g.order == euler_phi(n)
        for a, b in zip(g.cyclic_orders, g.cyclic_orders[1:]):
            assert a % b == 0
        # generator orders are exactly the claimed invariant factors
        for d, gen in zip(g.cyclic_orders, g.generators):
            assert pow(gen, d, n) == 1
            for q in {q for q, _ in factor(d)}:
                assert pow(gen, d // q, n) != 1
        # joint generation
        assert closure(n, g.generators) == frozenset(unit_residues(n))


def test_unit_group_direct_product():
    # every unit is a unique product of generator powers
    for n in (15, 16, 20, 24, 35, 40, 63, 100):
        g = unit_group(n)
        seen = set()
        exps = [range(d) for d in g.cyclic_orders]
        from itertools import product as iproduct

        for combo in iproduct(*exps):
            val = 1
            for e, base in zip(combo, g.generators):
                val = val * pow(base, e, n) % n
            seen.add(val)
        assert len(seen) == g.order
        assert seen == set(unit_residues(n))


def test_component_vectors_evaluate_to_their_generators():
    for n in range(3, 2001):
        g = unit_group(n)
        assert [c for c, _ in g.components] == [c for _, c in abelian._primary_components(n)], n
        for c, v in g.components:
            assert len(v) == len(g.cyclic_orders), (n, c)
            value = 1
            for e, base, d in zip(v, g.generators, g.cyclic_orders):
                assert 0 <= e < d, (n, c, v)
                value = value * pow(base, e, n) % n
            assert value == c, (n, c, v)


def test_subgroup_count_examples():
    assert len(subgroups(unit_group(46))) == 4  # cyclic of order 22
    assert len(subgroups(unit_group(8))) == 5  # C2 x C2
    assert len(subgroups(unit_group(16))) == 8  # C4 x C2: orders [4,2]
    assert unit_group(16).cyclic_orders == (4, 2)


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
    memo, oracle = {}, {}
    for n in range(3, 2000):
        g = unit_group(n)
        for cap in (1, 2, 3, 4, 6, 8, 12) + ((None,) if n <= 200 else ()):
            key = (g.cyclic_orders, cap)  # the oracle's answer depends on no more
            if key not in oracle:
                oracle[key] = subgroups_exhaustive(*key)
            expected = oracle[key]
            assert [h.hnf for h in subgroups(g, cap)] == expected, (n, cap)
            assert [h.hnf for h in subgroups(g, cap, memo)] == expected, (n, cap)
            assert all(h.group is g for h in subgroups(g, cap, memo)), (n, cap)
    # the moduli below 2000 share far fewer reduced orders than moduli
    assert len(memo) < 1000


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
                "invariant factors (2,) of (Z/15)* do not multiply to φ(n)"),
    "chain": ("abelian.UnitGroup(15, (2, 4), (14, 2))",
              "invariant factors (2, 4) of (Z/15)* are no divisibility chain"),
    # unit_group(15) records 7 as (1, 0) over the generators (7, 11)
    "vector": ("abelian.UnitGroup(15, (4, 2), (7, 11), ((11, (0, 1)), (7, (1, 1))))",
               "exponent vector (1, 1) of the component 7 of (Z/15)* gives 2"),
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
