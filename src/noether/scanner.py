"""Per-prime rationality classification pipeline and batch scanning.

For a prime p the question is whether some algebraic integer of the
cyclotomic field of conductor p-1 has norm +p or -p; yes means the
invariant field of the cyclic group of order p is rational over Q, and a
proof that one sign is impossible in some subfield, combined with the same
for the other sign, means it is not even stably rational.

The pipeline tries, in order: the elementary congruence criteria, per-sign
obstructions in subfields of ascending degree (degree 2 natively by
quadratic-form reduction, higher degrees through the external backend),
and a search of the full field for an element of norm p when the field is
small.  Anything left over is Undetermined.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Union

from .arith import euler_phi, is_prime, primes_below
from .criteria import FixtureSets, em_criterion_i, em_criterion_ii, load_fixtures
from .cyclotomic import FieldStore, cyclotomic_polynomial, subfields
from .normsearch import BackendClient, NormProblem, certificate_search, norm_of
from .quadforms import quadratic_subfield_discs, solve_norm

__all__ = [
    "Verdict",
    "ScanError",
    "ScanConfig",
    "CrossCheckReport",
    "classify_prime",
    "scan",
    "cross_check",
    "STATUS_RATIONAL",
    "STATUS_NOT_STABLY_RATIONAL",
    "STATUS_UNDETERMINED",
]

STATUS_RATIONAL = "Rational"
STATUS_NOT_STABLY_RATIONAL = "NotStablyRational"
STATUS_UNDETERMINED = "Undetermined"

METHOD_EM_I = "EM_I"
METHOD_EM_II = "EM_II"
METHOD_QUADRATIC = "QUADRATIC"
METHOD_BACKEND = "BACKEND"
METHOD_CERTIFICATE = "CERTIFICATE"

# a cost bound on the full-field certificate search: phi(70) = 24 is the
# largest field degree among the rational primes of the paper's range
CERTIFICATE_DEGREE_LIMIT = 24
# coefficients of the searched elements lie in [-1, 1]; that finds every
# rational prime of the paper's range, and a wider box only makes each
# failing search longer
CERTIFICATE_BOUND = 1


@dataclass(frozen=True)
class Verdict:
    p: int
    status: str
    d_plus: Optional[int] = None
    d_minus: Optional[int] = None
    method: Optional[str] = None
    grh: bool = False
    witnesses: Optional[dict] = None

    def to_row(self) -> dict:
        return {
            "p": self.p,
            "status": self.status,
            "d_plus": self.d_plus,
            "d_minus": self.d_minus,
            "method": self.method,
            "grh": self.grh,
        }


@dataclass(frozen=True)
class ScanError:
    p: int
    error: str

    def to_row(self) -> dict:
        return {"p": self.p, "error": self.error}


@dataclass(frozen=True)
class ScanConfig:
    max_degree: int = 2
    allow_grh: bool = False
    backend: Optional[str] = None
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.max_degree < 2:
            raise ValueError("max_degree must be >= 2")
        if self.max_degree > 2 and not self.backend:
            raise ValueError(
                "max_degree > 2 needs a backend command: degree-2 tests are "
                "the only ones decided natively"
            )
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@contextmanager
def _client_slot() -> Iterator[list[BackendClient]]:
    """An empty slot for a backend client, whose child is reaped on exit."""
    slot: list[BackendClient] = []
    try:
        yield slot
    finally:
        for client in slot:
            client.close()


@dataclass
class _SignScan:
    """Obstruction search state for one target sign."""

    degree: Optional[int] = None
    grh: bool = False
    witness: Optional[dict] = None

    @property
    def proven(self) -> bool:
        return self.degree is not None


def _scan_quadratic(p: int, sides: dict[int, _SignScan]) -> None:
    for disc in quadratic_subfield_discs(p - 1):
        for sign, state in sides.items():
            if state.proven:
                continue
            if not solve_norm(disc, p, sign).solvable:
                state.degree = 2
                state.witness = {"degree": 2, "disc": disc}


def _scan_backend(p: int, cfg: ScanConfig, sides: dict[int, _SignScan],
                  store: Optional[FieldStore], slot: list[BackendClient]) -> None:
    if not slot:
        slot.append(BackendClient(cfg.backend))
    for desc in subfields(p - 1, cfg.max_degree, 3, store):
        if all(state.proven for state in sides.values()):
            return
        for sign, state in sides.items():
            if state.proven:
                continue
            prob = NormProblem.from_squarefree(desc.minpoly, sign * p)
            dec = slot[0].decide(prob, grh_allowed=cfg.allow_grh)
            if dec.outcome == "unsolvable":
                state.degree = desc.degree
                state.grh = dec.grh
                state.witness = {
                    "degree": desc.degree,
                    "minpoly": list(desc.minpoly),
                    "grh": dec.grh,
                }


def _certified(p: int, g: tuple[int, ...], witness: tuple[int, ...]) -> Verdict:
    if norm_of(list(g), list(witness)) != p:
        raise RuntimeError(f"certificate {list(witness)} does not have norm {p}")
    return Verdict(
        p,
        STATUS_RATIONAL,
        method=METHOD_CERTIFICATE,
        witnesses={"minpoly": list(g), "coefficients": list(witness), "target": p},
    )


def classify_prime(p: int, cfg: ScanConfig = ScanConfig(),
                   store: Optional[FieldStore] = None,
                   slot: Optional[list[BackendClient]] = None) -> Verdict:
    """Classify one prime.  See the module docstring for the pipeline; the
    reported d_plus/d_minus are the minimal subfield degrees at which each
    sign was proven impossible, so they do not depend on enumeration order.

    store and slot are the field store and the backend client slot of the
    scan this prime belongs to (see cyclotomic.subfields and _classify_all).
    Without a store every field is built; without a slot the backend stage
    starts a solver child of its own and reaps it before this returns.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3):
        # Q(zeta_{p-1}) = Q, where p itself has norm p
        return _certified(p, tuple(cyclotomic_polynomial(p - 1)), (p,))

    em_i = em_criterion_i(p)
    em_ii = em_criterion_ii(p)
    sides = {1: _SignScan(), -1: _SignScan()}
    _scan_quadratic(p, sides)

    if em_i or em_ii:
        # the congruence shapes are two-sided degree-2 obstructions in
        # disguise, so the scan above must have proven both signs
        if not (sides[1].proven and sides[-1].proven):
            raise RuntimeError(f"{p} meets a congruence criterion but has no two-sided degree-2 obstruction")
        return Verdict(
            p,
            STATUS_NOT_STABLY_RATIONAL,
            d_plus=sides[1].degree,
            d_minus=sides[-1].degree,
            method=METHOD_EM_I if em_i else METHOD_EM_II,
            grh=False,
            witnesses={"plus": sides[1].witness, "minus": sides[-1].witness},
        )

    if cfg.max_degree > 2 and not all(s.proven for s in sides.values()):
        with _client_slot() if slot is None else nullcontext(slot) as slot:
            _scan_backend(p, cfg, sides, store, slot)

    if sides[1].proven and sides[-1].proven:
        backend_used = sides[1].degree > 2 or sides[-1].degree > 2
        return Verdict(
            p,
            STATUS_NOT_STABLY_RATIONAL,
            d_plus=sides[1].degree,
            d_minus=sides[-1].degree,
            method=METHOD_BACKEND if backend_used else METHOD_QUADRATIC,
            grh=sides[1].grh or sides[-1].grh,
            witnesses={"plus": sides[1].witness, "minus": sides[-1].witness},
        )

    # p - 1 >= 4, so Q(zeta_{p-1}) is totally imaginary and every norm is
    # positive: only +p can be a norm
    if not sides[1].proven and euler_phi(p - 1) <= CERTIFICATE_DEGREE_LIMIT:
        g = tuple(cyclotomic_polynomial(p - 1))
        witness = certificate_search(NormProblem.from_squarefree(g, p), CERTIFICATE_BOUND)
        if witness is not None:
            return _certified(p, g, witness)

    return Verdict(p, STATUS_UNDETERMINED)


Record = Union[Verdict, ScanError]


def _classify_all(primes: Iterable[int], cfg: ScanConfig) -> Iterator[Record]:
    """Classify primes through one field store and one backend client slot,
    whose solver child starts at the first backend prime and is reaped when
    the generator ends or is closed.  Failures become ScanError records."""
    store: FieldStore = {}
    with _client_slot() as slot:
        for p in primes:
            try:
                rec: Record = classify_prime(p, cfg, store, slot)
            except Exception as exc:
                rec = ScanError(p, f"{type(exc).__name__}: {exc}")
            yield rec


def _scan_chunk(args: tuple[list[int], ScanConfig]) -> list[Record]:
    """Classify one pool task's primes with a store and a client of its own."""
    primes, cfg = args
    return list(_classify_all(primes, cfg))


def scan(
    frm: int,
    to: int,
    cfg: ScanConfig = ScanConfig(),
    sink: Optional[Callable[[Record], None]] = None,
) -> dict:
    """Classify every prime in [frm, to], feed records to sink in ascending
    prime order, and return summary counts.  Per-prime failures become
    ScanError records; the scan always continues.  The scan owns one field
    store and one backend client (one each per pool task when parallel),
    whose child is reaped before it returns, also when the sink raises.
    """
    if not 2 <= frm <= to:
        raise ValueError("need 2 <= frm <= to")
    primes = [p for p in primes_below(to + 1) if p >= frm]
    counts: Counter = Counter()
    methods: Counter = Counter()

    if cfg.parallelism == 1:
        records: Iterator[Record] = _classify_all(primes, cfg)
    else:
        pool = ProcessPoolExecutor(max_workers=cfg.parallelism)
        size = max(1, len(primes) // (cfg.parallelism * 8))
        tasks = [(primes[i:i + size], cfg) for i in range(0, len(primes), size)]
        records = (rec for recs in pool.map(_scan_chunk, tasks) for rec in recs)

    try:
        for rec in records:
            if isinstance(rec, Verdict):
                counts[rec.status] += 1
                if rec.method:
                    methods[rec.method] += 1
            else:
                counts["Error"] += 1
            if sink is not None:
                sink(rec)
    finally:
        records.close()
        if cfg.parallelism != 1:
            pool.shutdown()
    return {
        "primes": len(primes),
        "status": dict(counts),
        "method": dict(methods),
    }


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    failures: tuple[str, ...]
    checked: int


def _row_of(rec) -> dict:
    if isinstance(rec, (Verdict, ScanError)):
        return rec.to_row()
    return rec


def cross_check(results: Iterable, fixtures: Optional[FixtureSets] = None) -> CrossCheckReport:
    """Validate a full scan result stream against the reference data.

    Checks: (a) no known-rational prime is classified NotStablyRational;
    (b) every unconditional NotStablyRational verdict lies outside the
    known-rational and undetermined sets; (c) every prime whose reference
    row is (2, 2, 0) is classified NotStablyRational with degrees (2, 2)
    unconditionally; (d) every undetermined-set prime passes all its
    degree-2 norm tests in both signs (recomputed here, not taken from the
    stream); (e) for every reference row with degrees (d+, d-), d_s = 2
    exactly when some quadratic subfield obstructs sign s (recomputed).
    """
    fx = fixtures or load_fixtures()
    rows: dict[int, dict] = {}
    for rec in results:
        row = _row_of(rec)
        if "error" in row and "status" not in row:
            continue  # error records leave their prime uncovered
        rows[row["p"]] = row

    failures: list[str] = []
    expected = set(fx.result_rows)
    missing = expected - set(rows)
    if missing:
        failures.append(
            f"incomplete coverage: {len(missing)} primes missing "
            f"(first: {sorted(missing)[:5]})"
        )
        return CrossCheckReport(False, tuple(failures), len(rows))

    rational = set(fx.known_rational)
    undetermined = set(fx.undetermined)

    for p in sorted(rational):
        if rows[p]["status"] == STATUS_NOT_STABLY_RATIONAL:
            failures.append(f"(a) known-rational prime {p} classified NotStablyRational")

    for p in sorted(rows):
        row = rows[p]
        if (
            row["status"] == STATUS_NOT_STABLY_RATIONAL
            and not row["grh"]
            and p in (rational | undetermined)
        ):
            failures.append(
                f"(b) unconditional NotStablyRational verdict for {p}, which is in "
                f"the {'known-rational' if p in rational else 'undetermined'} set"
            )

    for p, ref in sorted(fx.result_rows.items()):
        if ref == (2, 2, 0):
            row = rows[p]
            got = (row["status"], row["d_plus"], row["d_minus"], row["grh"])
            want = (STATUS_NOT_STABLY_RATIONAL, 2, 2, False)
            if got != want:
                failures.append(f"(c) prime {p}: reference row (2,2,0) but verdict {got}")

    for p in sorted(undetermined):
        bad = [
            (disc, sign)
            for disc in quadratic_subfield_discs(p - 1)
            for sign in (1, -1)
            if not solve_norm(disc, p, sign).solvable
        ]
        if bad:
            disc, sign = bad[0]
            failures.append(
                f"(d) undetermined-set prime {p} fails {len(bad)} degree-2 "
                f"tests (first: discriminant {disc}, sign {sign:+d})"
            )

    for p, ref in sorted(fx.result_rows.items()):
        if not isinstance(ref, tuple):
            continue
        obstructed = {
            sign
            for disc in quadratic_subfield_discs(p - 1)
            for sign in (1, -1)
            if not solve_norm(disc, p, sign).solvable
        }
        for sign, d in ((1, ref[0]), (-1, ref[1])):
            if (d == 2) != (sign in obstructed):
                failures.append(
                    f"(e) prime {p}: reference d{'+' if sign > 0 else '-'} = {d}, but "
                    f"sign {sign:+d} is {'' if sign in obstructed else 'not '}"
                    f"obstructed by a quadratic subfield"
                )

    return CrossCheckReport(not failures, tuple(failures), len(rows))
