"""Per-layer figures for one traced pass, taken from outside the program.

`noether` modules import functions by name (`from .arith import factor`),
so a wrapper only sees the calls made through the name it replaces: each
one is installed in every module where a caller looks the name up.  Times
are inclusive (a wrapped call that calls another wrapped function counts
both), and a wrapped function that re-enters itself counts once.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import noether.abelian
import noether.arith
import noether.cyclotomic
import noether.normsearch
import noether.polyops
import noether.quadforms
import noether.scanner

METHODS = ("EM_I", "EM_II", "QUADRATIC", "BACKEND", "CERTIFICATE", "KNOWN_TABLE")

# metric -> the modules whose global of that function name callers use
SITES = {
    "arith.factor": ("factor", [noether.arith, noether.quadforms, noether.abelian, noether.cyclotomic]),
    "arith.divisors": ("divisors", [noether.arith, noether.quadforms, noether.abelian, noether.cyclotomic]),
    "quadforms.subfield_discs": ("quadratic_subfield_discs", [noether.scanner]),
    "quadforms.solve_norm": ("solve_norm", [noether.scanner]),
    "criteria.em": ("em_criterion_i", [noether.scanner]),
    "criteria.em_ii": ("em_criterion_ii", [noether.scanner]),
    "abelian.subgroups": ("subgroups", [noether.cyclotomic]),
    "cyclotomic.subfields": ("subfields", [noether.scanner]),
    "cyclotomic.minpoly": ("subfield_minpoly", [noether.cyclotomic]),
    "polyops.poly_mul": ("poly_mul", [noether.polyops, noether.cyclotomic]),
    "polyops.resultant": ("resultant", [noether.polyops, noether.normsearch]),
    "polyops.discriminant": ("discriminant", [noether.polyops, noether.cyclotomic]),
    "normsearch.certificate": ("certificate_search", [noether.scanner]),
    "normsearch.norm_of": ("norm_of", [noether.normsearch]),
    "scanner.classify": ("classify_prime", [noether.scanner]),
    "scanner.backend_stage": ("_scan_backend", [noether.scanner]),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.prime_ms: list[float] = []
        self.fields: set = set()
        self.requests: list[dict] = []
        self._active: set = set()

    def wrap(self, owner, attr: str, metric: str, after=None) -> None:
        """Replace owner.attr; `after(args, result, seconds)` runs untimed."""
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if metric in self._active:
                return inner(*args, **kwargs)
            self._active.add(metric)
            t0 = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._active.discard(metric)
                self.calls[metric] += 1
                self.secs[metric] += dt
            if after is not None:
                after(args, result, dt)
            return result

        setattr(owner, attr, wrapper)

    # untimed bookkeeping hooks -------------------------------------------

    def _classified(self, args, verdict, dt) -> None:
        self.prime_ms.append(dt * 1000.0)
        self.counts[f"scanner.method.{verdict.method or 'none'}"] += 1

    def _minpoly(self, args, sd, dt) -> None:
        f = sd.period_modulus
        self.fields.add((f, frozenset(u % f for u in sd.subgroup.elements())))
        if sd.degree <= 2:
            self.secs["cyclotomic.minpoly.le2"] += dt

    def _cyc_mul(self, args, result, dt) -> None:
        self.counts["cyclotomic.mul.coeffs"] += args[0].n

    def _poly_mul(self, args, result, dt) -> None:
        self.counts["polyops.poly_mul.coeffs"] += len(args[0]) + len(args[1])

    def _certificate(self, args, result, dt) -> None:
        prob, bound = args
        self.counts["normsearch.certificate.box"] += (2 * bound + 1) ** prob.degree

    def _decided(self, args, decision, dt) -> None:
        prob = args[1]
        self.counts[f"normsearch.backend.{decision.outcome}"] += 1
        self.requests.append({"minpoly": list(prob.minpoly), "target": prob.target})

    def report(self, scan_s: float) -> dict:
        """Every per-layer sum of this pass, the per-prime times and the
        requests sent to the backend."""
        c, s, n = self.calls, self.secs, self.counts
        info = noether.quadforms.principal_cycle.cache_info()
        metrics = {
            "arith.factor.calls": c["arith.factor"],
            "arith.factor.s": s["arith.factor"],
            "arith.divisors.calls": c["arith.divisors"],
            "arith.divisors.s": s["arith.divisors"],
            "quadforms.subfield_discs.calls": c["quadforms.subfield_discs"],
            "quadforms.subfield_discs.s": s["quadforms.subfield_discs"],
            "quadforms.solve_norm.calls": c["quadforms.solve_norm"],
            "quadforms.solve_norm.s": s["quadforms.solve_norm"],
            "quadforms.principal_cycle.hits": info.hits,
            "quadforms.principal_cycle.misses": info.misses,
            "criteria.em.s": s["criteria.em"] + s["criteria.em_ii"],
            "abelian.subgroups.calls": c["abelian.subgroups"],
            "abelian.subgroups.s": s["abelian.subgroups"],
            "abelian.unit_group.misses": noether.abelian.unit_group.cache_info().misses,
            "cyclotomic.subfields.calls": c["cyclotomic.subfields"],
            "cyclotomic.subfields.s": s["cyclotomic.subfields"],
            "cyclotomic.minpoly.calls": c["cyclotomic.minpoly"],
            "cyclotomic.minpoly.s": s["cyclotomic.minpoly"],
            "cyclotomic.minpoly.distinct": len(self.fields),
            "cyclotomic.minpoly.le2_s": s["cyclotomic.minpoly.le2"],
            "cyclotomic.mul.calls": c["cyclotomic.mul"],
            "cyclotomic.mul.s": s["cyclotomic.mul"],
            "cyclotomic.mul.coeffs": n["cyclotomic.mul.coeffs"],
            "polyops.poly_mul.calls": c["polyops.poly_mul"],
            "polyops.poly_mul.s": s["polyops.poly_mul"],
            "polyops.poly_mul.coeffs": n["polyops.poly_mul.coeffs"],
            "polyops.resultant.calls": c["polyops.resultant"],
            "polyops.resultant.s": s["polyops.resultant"],
            "polyops.discriminant.calls": c["polyops.discriminant"],
            "polyops.discriminant.s": s["polyops.discriminant"],
            "normsearch.certificate.calls": c["normsearch.certificate"],
            "normsearch.certificate.s": s["normsearch.certificate"],
            "normsearch.certificate.box": n["normsearch.certificate.box"],
            "normsearch.norm_of.calls": c["normsearch.norm_of"],
            "normsearch.backend.requests": c["normsearch.backend"],
            "normsearch.backend.s": s["normsearch.backend"],
            "normsearch.backend.unsolvable": n["normsearch.backend.unsolvable"],
            "normsearch.backend.unknown": n["normsearch.backend.unknown"],
            "normsearch.backend.spawn_s": s["normsearch.backend.spawn"],
            "scanner.classify.calls": c["scanner.classify"],
            "scanner.backend_primes": c["scanner.backend_stage"],
            **{f"scanner.method.{m}": n[f"scanner.method.{m}"] for m in METHODS + ("none",)},
            "scanner.outside_s": scan_s - s["scanner.classify"],
        }
        return {"metrics": metrics, "prime_ms": self.prime_ms, "requests": self.requests}


def install() -> Tracer:
    """Install every wrapper; call before the scan starts."""
    tr = Tracer()
    hooks = {
        "scanner.classify": tr._classified,
        "cyclotomic.minpoly": tr._minpoly,
        "polyops.poly_mul": tr._poly_mul,
        "normsearch.certificate": tr._certificate,
    }
    for metric, (name, modules) in SITES.items():
        for module in modules:
            tr.wrap(module, name, metric, hooks.get(metric))
    tr.wrap(noether.cyclotomic.CycElement, "__mul__", "cyclotomic.mul", tr._cyc_mul)
    tr.wrap(noether.normsearch.BackendClient, "decide", "normsearch.backend", tr._decided)
    tr.wrap(noether.normsearch.BackendClient, "__init__", "normsearch.backend.spawn")
    return tr
