"""Checks the output of `noether scan` apart from the program.

Nothing here imports `noether`.  Prime lists come from sympy, quadratic
norm equations are decided again from scratch, and every claim that a
norm exists is confirmed by evaluating an explicit witness:

* A prime p has a degree-2 obstruction for the sign s when some quadratic
  subfield Q(sqrt D) of Q(zeta_{p-1}) has no element of norm s*p.  The
  elements of its ring of integers are (X + Y sqrt D)/2 with X = D*Y mod 2,
  so s*p is a norm exactly when X^2 - D*Y^2 = 4*s*p has an integer
  solution; the parity condition then holds by itself.
* For D < 0 the equation is decided by enumerating |Y| up to
  sqrt(4p/|D|), the bound beyond which the left side exceeds 4p.
* For D > 0 and D no square mod p there is no solution (see norm_witness).
  Otherwise a short search and then a continued-fraction search look for
  a witness; failing both, sympy's `diop_DN` lists the fundamental
  solutions, and an empty list proves that none exists.

The expensive part, deciding every (D, sign) of every row, may be reused
for an output whose sha256 was already proved by this same checker.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path

import sympy
from sympy.solvers.diophantine.diophantine import diop_DN

ROW_KEYS = ("p", "status", "d_plus", "d_minus", "method", "grh")
STATUSES = ("Rational", "NotStablyRational", "Undetermined")
# The 17 primes the paper's abstract names as rational: p <= 43, 61, 67, 71.
ABSTRACT_RATIONAL = frozenset(sympy.primerange(2, 44)) | {61, 67, 71}
# The only obstructions above degree 2 that `tests/fake_backend.py scripted`
# can certify unconditionally: both signs of 5507 at degree 8.
SCRIPTED_BACKEND = {5507: (8, 8)}
# |Y| bound of the direct witness search for indefinite forms
SHORT_SEARCH = 256

_SOURCE_SHA = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


class CheckError(Exception):
    """The output, or a trace of the run that produced it, is wrong."""


def _squarefree(m: int) -> bool:
    return all(e == 1 for e in sympy.factorint(abs(m)).values())


def is_fundamental(D: int) -> bool:
    if D == 1:
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def quadratic_discs(n: int) -> list[int]:
    """Discriminants of the quadratic subfields of Q(zeta_n): the fundamental
    D != 1 whose absolute value divides n (|D| is the conductor)."""
    return sorted(D for m in sympy.divisors(n) for D in (m, -m) if is_fundamental(D))


def _convergents(P: int, Q: int, D: int):
    """(G, B) for the continued fraction of (P + sqrt D)/Q, Q | D - P^2,
    through its pre-period and one full period (the PQa algorithm)."""
    s = isqrt(D)
    g0, g1, b0, b1 = -P, Q, 1, 0
    seen = set()
    while (P, Q) not in seen:
        seen.add((P, Q))
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        g0, g1 = g1, a * g1 + g0
        b0, b1 = b1, a * b1 + b0
        yield g1, b1
        P = a * Q - P
        Q = (D - P * P) // Q


def _pell_search(D: int, n: int) -> tuple[int, int] | None:
    """Look for X^2 - D*Y^2 = n through the convergents of (z + sqrt D)/|m|
    for every f^2 | n, m = n/f^2 and z^2 = D (mod |m|), as in the
    Lagrange-Matthews-Mollin method.  Only a finder: its answer is
    evaluated by the caller and None proves nothing."""
    minus_one = next(((g, b) for g, b in _convergents(0, 1, D) if g * g - D * b * b == -1), None)
    for f in sympy.divisors(abs(n)):
        if n % (f * f):
            continue
        m = n // (f * f)
        for z in sympy.sqrt_mod(D % abs(m), abs(m), all_roots=True) or ():
            for g, b in _convergents(z, abs(m), D):
                v = g * g - D * b * b
                if v == m:
                    return (f * abs(g), f * abs(b))
                if v == -m and minus_one is not None:
                    t, u = minus_one
                    return (f * abs(g * t + D * b * u), f * abs(g * u + b * t))
    return None


def norm_witness(D: int, t: int) -> tuple[int, int] | None:
    """(X, Y) with X^2 - D*Y^2 = 4t, or None when provably none exists
    (t = +-p, p an odd prime not dividing D)."""
    n4 = 4 * t
    p = abs(t)
    if D < 0:
        if t < 0:
            return None  # X^2 + |D| Y^2 is never negative
        for y in range(isqrt(n4 // -D) + 1):
            x = isqrt(n4 + D * y * y)
            if x * x == n4 + D * y * y:
                return (x, y)
        return None
    if pow(D % p, (p - 1) // 2, p) == p - 1:
        # D is no square mod p, so X^2 = D Y^2 (mod p) forces p | X and
        # p | Y, and then p^2 would divide 4p
        return None
    for y in range(SHORT_SEARCH):
        r = n4 + D * y * y
        if r >= 0 and isqrt(r) ** 2 == r:
            return (isqrt(r), y)
    found = _pell_search(D, n4)
    if found is not None:
        return found
    sols = diop_DN(D, n4)
    for x, y in sols:
        if x * x - D * y * y == n4:
            return (int(x), int(y))
    if sols:
        raise CheckError(f"diop_DN({D}, {n4}) returned non-solutions {sols}")
    return None


def sign_side(p: int, sign: int, discs: list[int]) -> tuple[str, int | None, int]:
    """('obstructed', D, 0) for the first D (definite ones first) in which
    sign*p is not a norm, else ('open', None, k) after confirming a witness
    for each of the k discriminants by evaluation."""
    for D in sorted(discs, key=lambda d: (d > 0, abs(d))):
        w = norm_witness(D, sign * p)
        if w is None:
            return ("obstructed", D, 0)
        x, y = w
        if x * x - D * y * y != 4 * sign * p:
            raise CheckError(f"witness {w} fails for D={D}, target {sign * p}")
    return ("open", None, len(discs))


def parse_rows(text: str) -> list[dict]:
    rows = []
    for i, line in enumerate(text.splitlines(), 1):
        row = json.loads(line)
        if not isinstance(row, dict) or not isinstance(row.get("p"), int):
            raise CheckError(f"line {i}: not a scan record: {line!r}")
        rows.append(row)
    return rows


def _check_row_shape(row: dict, max_degree: int) -> None:
    if "error" in row:
        raise CheckError(f"scan error: {row['error']}")
    if tuple(row) != ROW_KEYS:
        raise CheckError(f"keys {list(row)}")
    status, dp, dm, method = row["status"], row["d_plus"], row["d_minus"], row["method"]
    if status not in STATUSES:
        raise CheckError(f"unknown status {status!r}")
    if row["grh"] is not False:
        raise CheckError("GRH-conditional verdict in a run without --grh")
    if status == "NotStablyRational":
        for d in (dp, dm):
            if not isinstance(d, int) or not 2 <= d <= max_degree:
                raise CheckError(f"obstruction degree {d!r} outside 2..{max_degree}")
        want = "BACKEND" if max(dp, dm) > 2 else ("EM_I", "EM_II", "QUADRATIC")
        if method not in want:
            raise CheckError(f"method {method!r} for degrees ({dp}, {dm})")
    elif dp is not None or dm is not None:
        raise CheckError(f"{status} row carries degrees ({dp}, {dm})")
    if status == "Rational" and method not in ("CERTIFICATE", "KNOWN_TABLE"):
        raise CheckError(f"Rational by method {method!r}")
    if status == "Undetermined" and method is not None:
        raise CheckError(f"Undetermined row with method {method!r}")


def check_structure(rows: list[dict], frm: int, to: int, max_degree: int) -> dict[int, str]:
    """Coverage, order, row shapes, the abstract's rational set and the
    backend verdicts.  Returns the faulty primes with a reason; a fault
    that no prime can carry raises."""
    got = [row["p"] for row in rows]
    if got != sorted(set(got)):
        raise CheckError("rows are not in strictly ascending prime order")
    # `noether scan` includes `to`; the workloads use non-prime bounds, so
    # the half-open range the README describes gives the same list.
    want = set(sympy.primerange(frm, to + 1))
    faults = {p: "prime missing from the output" for p in want - set(got)}
    faults.update({p: "row for a number that is not a prime in range" for p in set(got) - want})
    for row in rows:
        try:
            _check_row_shape(row, max_degree)
        except CheckError as exc:
            faults.setdefault(row["p"], str(exc))
    status = {row["p"]: row.get("status") for row in rows}
    for p in want:
        if (status.get(p) == "Rational") != (p in ABSTRACT_RATIONAL):
            faults.setdefault(p, f"status {status.get(p)} against the abstract's rational set")
    for row in rows:
        p = row["p"]
        expected = SCRIPTED_BACKEND.get(p)
        if expected is not None and max(expected) > max_degree:
            expected = None
        if (row.get("method") == "BACKEND") != (expected is not None) or (
                expected and (row["d_plus"], row["d_minus"]) != expected):
            faults.setdefault(p, f"backend verdict {row.get('method')} ({row.get('d_plus')}, "
                                 f"{row.get('d_minus')}), the scripted backend proves {expected}")
    return faults


def prove_degree2(row: dict) -> dict:
    """Re-decide every degree-2 claim of one row; returns counts by kind."""
    p, status = row["p"], row["status"]
    stats = {"definite_obstructions": 0, "indefinite_obstructions": 0, "open_sides": 0, "witnesses": 0}
    if p < 5:
        return stats  # Q(zeta_1) and Q(zeta_2) have no quadratic subfield
    discs = quadratic_discs(p - 1)
    sides = {}
    for sign, d in ((1, row["d_plus"]), (-1, row["d_minus"])):
        kind, D, k = sign_side(p, sign, discs)
        sides[sign] = kind
        if kind == "obstructed":
            stats["definite_obstructions" if D < 0 else "indefinite_obstructions"] += 1
        else:
            stats["open_sides"] += 1
            stats["witnesses"] += k
        if status == "NotStablyRational" and (d == 2) != (kind == "obstructed"):
            raise CheckError(f"sign {sign:+d} reported at degree {d}, but degree 2 is {kind}")
    if status != "NotStablyRational" and "open" not in sides.values():
        raise CheckError(f"{status}, yet both signs are obstructed at degree 2")
    return stats


def prove_rows(rows: list[dict], faults: dict[int, str]) -> dict:
    total: dict[str, int] = {}
    for row in rows:
        if row["p"] in faults:
            continue
        try:
            stats = prove_degree2(row)
        except CheckError as exc:
            faults[row["p"]] = str(exc)
            continue
        for k, v in stats.items():
            total[k] = total.get(k, 0) + v
    return total


@dataclass
class Report:
    rows: int
    sha256: str
    proof: str  # "fresh" or "reused"
    faults: dict = field(default_factory=dict)  # prime -> reason
    stats: dict = field(default_factory=dict)
    sampled: list = field(default_factory=list)


def check_scan(text: str, frm: int, to: int, max_degree: int,
               proof_dir: Path | None = None, seed: int | None = None,
               sample: int = 8) -> Report:
    """Check one scan output.  Faulty primes are returned in the report;
    a fault of the output as a whole raises CheckError.

    A degree-2 proof with no fault is stored under proof_dir, keyed by the
    output's sha256 and this file's sha256.  When one is found, `sample`
    rows drawn with `seed` are proved again from scratch, so that every
    run re-proves some rows.
    """
    rows = parse_rows(text)
    faults = check_structure(rows, frm, to, max_degree)
    rows_count = len(set(sympy.primerange(frm, to + 1)))
    sha = hashlib.sha256(text.encode()).hexdigest()
    stamp = proof_dir / f"{sha[:32]}-{_SOURCE_SHA[:16]}.json" if proof_dir else None
    if not faults and stamp is not None and stamp.exists():
        rng = random.Random(seed)
        picked = sorted(rng.sample(range(len(rows)), min(sample, len(rows))))
        prove_rows([rows[i] for i in picked], faults)
        if not faults:
            return Report(rows_count, sha, "reused", faults, json.loads(stamp.read_text()),
                          [rows[i]["p"] for i in picked])
    stats = prove_rows(rows, faults)
    if stamp is not None and not faults:
        stamp.parent.mkdir(parents=True, exist_ok=True)
        stamp.write_text(json.dumps(stats))
    return Report(rows_count, sha, "fresh", faults, stats)


# ---- the traced run: fields handed to the backend ----------------------

def _subgroup_closure(group: frozenset, x: int, n: int) -> frozenset:
    out = set(group)
    y = x
    while y not in group:
        out.update(s * y % n for s in group)
        y = y * x % n
    return frozenset(out)


def count_subgroups_of_index(n: int, d: int) -> int:
    """Subgroups of index d in (Z/n)*, by brute force.

    A finite abelian group is isomorphic to its dual, and H -> H^perp maps
    the subgroups of index d one-to-one onto those of order d, so this
    counts subgroups of order d: closures of ever more elements of order
    dividing d, kept while their order divides d.
    """
    phi = sympy.totient(n)
    if phi % d:
        return 0
    torsion = [u for u in range(1, n) if gcd(u, n) == 1 and pow(u, d, n) == 1]
    trivial = frozenset([1 % n])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        grown = []
        for group in frontier:
            for x in torsion:
                if x in group:
                    continue
                bigger = _subgroup_closure(group, x, n)
                if d % len(bigger) == 0 and bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return sum(1 for group in seen if len(group) == d)


def _irreducible(minpoly: tuple[int, ...]) -> bool:
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(minpoly)), x, domain="ZZ").is_irreducible


def check_backend_fields(rows: list[dict], trace: dict, max_degree: int) -> dict:
    """Check the minimal polynomials the traced run sent to the backend.

    Each must be monic and irreducible of degree 3..max_degree.  For each
    prime and degree the number of distinct polynomials sent equals the
    number of subgroups of that index in (Z/(p-1))*: the scan offers every
    field of degree >= 3 while a sign is still open.  A prime decided by the
    backend stops early, so for it the count may only fall short at the
    degree that decided it.
    """
    by_p = {row["p"]: row for row in rows}
    sent: dict[int, dict[int, set]] = {}
    for req in trace["requests"]:
        poly = tuple(req["minpoly"])
        p = abs(req["target"])
        deg = len(poly) - 1
        if p not in by_p:
            raise CheckError(f"backend request for {p}, which has no row")
        if not 3 <= deg <= max_degree or poly[-1] != 1:
            raise CheckError(f"{p}: backend got a polynomial of degree {deg}, leading {poly[-1]}")
        sent.setdefault(p, {}).setdefault(deg, set()).add(poly)
    distinct = {poly for per_deg in sent.values() for polys in per_deg.values() for poly in polys}
    for poly in distinct:
        if not _irreducible(poly):
            raise CheckError(f"reducible minimal polynomial sent to the backend: {list(poly)}")
    for p, row in by_p.items():
        decided_at_2 = row["status"] == "NotStablyRational" and row["method"] != "BACKEND"
        if p < 5 or decided_at_2:
            if p in sent:
                raise CheckError(f"{p}: decided without the backend but sent to it")
            continue
        stop = max(row["d_plus"], row["d_minus"]) if row["method"] == "BACKEND" else None
        for deg in range(3, max_degree + 1):
            want = count_subgroups_of_index(p - 1, deg)
            got = len(sent.get(p, {}).get(deg, ()))
            short_ok = stop is not None and deg >= stop
            if got != want and not (short_ok and got <= want):
                raise CheckError(f"{p}: {got} degree-{deg} fields sent, {want} subgroups of index {deg}")
    return {"backend_primes": len(sent), "distinct_minpolys": len(distinct),
            "requests": len(trace["requests"])}
