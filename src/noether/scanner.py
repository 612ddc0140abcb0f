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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .arith import euler_phi, is_prime, primes_below
from .criteria import RATIONAL, UNDETERMINED, ResultRow, em_criterion_i, em_criterion_ii, load_fixtures
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
    "check_row",
    "RowError",
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
# the methods that prove a NotStablyRational verdict whose degrees are both
# 2, and those that prove one with a degree above 2
DEGREE_TWO_METHODS = frozenset({METHOD_EM_I, METHOD_EM_II, METHOD_QUADRATIC})
HIGHER_DEGREE_METHODS = frozenset({METHOD_BACKEND})

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


def _scan_quadratic(p: int) -> dict[int, Optional[dict]]:
    """sign -> {"degree": 2, "disc": D} for the first D of
    quadratic_subfield_discs(p - 1) at which sign*p is not a norm, or None
    when there is none, as for every p < 5, where Q(zeta_{p-1}) = Q.  A
    sign is tested only until its D is found."""
    plus = minus = None
    if p >= 5:
        for disc in quadratic_subfield_discs(p - 1):
            if plus is None and not solve_norm(disc, p, 1).solvable:
                plus = {"degree": 2, "disc": disc}
            if minus is None and not solve_norm(disc, p, -1).solvable:
                minus = {"degree": 2, "disc": disc}
    return {1: plus, -1: minus}


def _scan_backend(p: int, cfg: ScanConfig, sides: dict[int, Optional[dict]],
                  store: FieldStore, client: BackendClient) -> None:
    """Ask the backend about the subfields of degree 3..max_degree, one
    degree at a time: every field of the degree, built by subfields() as
    the degree is reached, and every sign still open (its witness None)
    goes out in one batch, whose decisions are taken in order until both
    signs are proven, so no field above that degree is built.  A sign's
    witness is the first field in subfields() order that proves it; a
    later field of the same degree may be asked it too."""
    for degree in range(3, cfg.max_degree + 1):
        open_signs = [sign for sign, witness in sides.items() if witness is None]
        if not open_signs:
            return
        batch = [(desc, sign) for desc in subfields(p - 1, degree, degree, store) for sign in open_signs]
        decisions = client.send([NormProblem(desc.minpoly, sign * p) for desc, sign in batch],
                                cfg.allow_grh)
        for (desc, sign), dec in zip(batch, decisions):
            if dec.outcome == "unsolvable" and sides[sign] is None:
                sides[sign] = {"degree": desc.degree, "minpoly": list(desc.minpoly), "grh": dec.grh}
                if None not in sides.values():
                    return


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
                   client: Optional[BackendClient] = None) -> Verdict:
    """Classify one prime.  See the module docstring for the pipeline; the
    reported d_plus/d_minus are the minimal subfield degrees at which each
    sign was proven impossible, so they do not depend on enumeration order.

    A sign's proof is its witness: {"degree": 2, "disc": D} from the
    degree-2 stage, or {"degree", "minpoly", "grh"} from the backend.  Once
    both signs have one, the one NotStablyRational verdict reads d_s and
    grh from them, and its method is the congruence criterion the prime
    meets (EM_I, EM_II), else BACKEND if a degree is above 2, else
    QUADRATIC.  An Undetermined verdict keeps the one-sided witnesses it
    has, {"plus": ..., "minus": ...} with an open sign None.

    store and client are the field store and the backend client of the scan
    this prime belongs to (see cyclotomic.subfields and _classify_all).
    Without a store the backend stage lists and builds the fields through
    one made for this prime; without a client it starts a solver child of
    its own and reaps it before this returns, so a prime decided before
    that stage starts none.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3):
        # Q(zeta_{p-1}) = Q, where p itself has norm p
        return _certified(p, tuple(cyclotomic_polynomial(p - 1)), (p,))

    # sign -> the witness proving it is not a norm, or None while open
    sides = _scan_quadratic(p)
    em = METHOD_EM_I if em_criterion_i(p) else METHOD_EM_II if em_criterion_ii(p) else None
    if em and None in sides.values():
        # the congruence shapes are two-sided degree-2 obstructions in
        # disguise, so the scan above must have proven both signs
        raise RuntimeError(f"{p} meets a congruence criterion but has no two-sided degree-2 obstruction")

    if cfg.max_degree > 2 and None in sides.values():
        with BackendClient(cfg.backend) if client is None else nullcontext(client) as client:
            _scan_backend(p, cfg, sides, FieldStore(cfg.max_degree) if store is None else store, client)

    plus, minus = sides[1], sides[-1]
    if plus and minus:
        d_plus, d_minus = plus["degree"], minus["degree"]
        return Verdict(
            p,
            STATUS_NOT_STABLY_RATIONAL,
            d_plus=d_plus,
            d_minus=d_minus,
            method=em or (METHOD_BACKEND if max(d_plus, d_minus) > 2 else METHOD_QUADRATIC),
            grh=plus.get("grh", False) or minus.get("grh", False),
            witnesses={"plus": plus, "minus": minus},
        )

    # p - 1 >= 4, so Q(zeta_{p-1}) is totally imaginary and every norm is
    # positive: only +p can be a norm
    if plus is None and euler_phi(p - 1) <= CERTIFICATE_DEGREE_LIMIT:
        g = tuple(cyclotomic_polynomial(p - 1))
        witness = certificate_search(NormProblem(g, p), CERTIFICATE_BOUND)
        if witness is not None:
            return _certified(p, g, witness)

    return Verdict(p, STATUS_UNDETERMINED, witnesses={"plus": plus, "minus": minus})


Record = Union[Verdict, ScanError]


def _classify_all(primes: Iterable[int], cfg: ScanConfig) -> Iterator[Record]:
    """Classify primes through one field store and, above degree 2, one
    backend client, whose solver child starts with the first record and is
    reaped when the generator ends or is closed.  Failures of a prime become
    ScanError records; a backend that cannot be started raises."""
    store = FieldStore(cfg.max_degree)
    with BackendClient(cfg.backend) if cfg.max_degree > 2 else nullcontext() as client:
        for p in primes:
            try:
                rec: Record = classify_prime(p, cfg, store, client)
            except Exception as exc:
                rec = ScanError(p, f"{type(exc).__name__}: {exc}")
            yield rec


def _scan_task(primes: list[int], cfg: ScanConfig) -> list[Record]:
    """Classify one pool worker's primes with a store and a client of its own."""
    return list(_classify_all(primes, cfg))


def scan(
    frm: int,
    to: int,
    cfg: ScanConfig = ScanConfig(),
    sink: Optional[Callable[[Record], None]] = None,
) -> dict:
    """Classify every prime in [frm, to], feed records to sink in ascending
    prime order, and return summary counts.  Per-prime failures become
    ScanError records and the scan continues; a backend command that cannot
    be started raises BackendUnavailableError before any record.  The scan
    owns one field store and, above degree 2, one backend client, whose
    child starts with the scan and is reaped before it returns, also when
    the sink raises.  With parallelism J the scan starts jobs =
    min(J, #primes) pool workers; worker i classifies primes[i::jobs] of
    the ascending primes with a store and a client of its own, and the sink
    gets the records once every worker has finished.  Parallelism 1, the
    default, classifies in-process and starts and imports no pool.
    """
    if not 2 <= frm <= to:
        raise ValueError("need 2 <= frm <= to")
    primes = [p for p in primes_below(to + 1) if p >= frm]
    counts: Counter = Counter()
    methods: Counter = Counter()

    jobs = min(cfg.parallelism, len(primes))
    if jobs <= 1:
        records: Iterator[Record] = _classify_all(primes, cfg)
    else:
        # the pool and the merge are imported here, so a serial scan never
        # loads concurrent.futures or multiprocessing
        import heapq
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            tasks = list(pool.map(_scan_task, [primes[i::jobs] for i in range(jobs)], [cfg] * jobs))
        records = heapq.merge(*tasks, key=attrgetter("p"))

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


class RowError(ValueError):
    """A row that no honest scan writes: `index` is its position in the
    stream given to cross_check (from 1), `why` what is wrong with it."""

    def __init__(self, index: int, p, why: str):
        super().__init__(f"row {index} (p = {p!r}): {why}")
        self.index, self.why = index, why


def check_row(row, index: int, seen: set[int]) -> None:
    """Raise RowError unless row, the index-th of a stream, is one an
    honest scan writes: a prime "p" that is not in `seen` (the primes of
    the rows before it, to which p is added) and, unless it is an error
    record, a "status" that is one of the three, "d_plus" and "d_minus"
    each an integer or null, a "method" and a boolean "grh", tied to the
    status:
    - NotStablyRational: two degrees >= 2; a method in DEGREE_TWO_METHODS
      when both are 2, else in HIGHER_DEGREE_METHODS; "grh" true only
      with METHOD_BACKEND;
    - Rational: null degrees, METHOD_CERTIFICATE, "grh" false;
    - Undetermined: null degrees, a null method, "grh" false."""
    p = row.get("p") if isinstance(row, dict) else None

    def bad(why: str) -> RowError:
        return RowError(index, p, why)

    if not isinstance(row, dict):
        raise bad("not a JSON object")
    if type(p) is not int:
        raise bad('no integer "p"')
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise bad(str(exc)) from None
    if not prime:
        raise bad(f'"p" = {p} is not prime')
    if p in seen:
        raise bad(f"a second row for p = {p}")
    seen.add(p)
    if "error" in row and "status" not in row:
        return
    if row.get("status") not in (STATUS_RATIONAL, STATUS_NOT_STABLY_RATIONAL, STATUS_UNDETERMINED):
        raise bad(f'"status" {row.get("status")!r} is none of the three')
    for key in ("d_plus", "d_minus"):
        if key not in row or row[key] is not None and type(row[key]) is not int:
            raise bad(f'no integer or null "{key}"')
    if type(row.get("grh")) is not bool:
        raise bad('no boolean "grh"')
    if "method" not in row:
        raise bad('no "method"')
    status, method, grh = row["status"], row["method"], row["grh"]
    degrees = (row["d_plus"], row["d_minus"])
    if status == STATUS_NOT_STABLY_RATIONAL:
        if None in degrees or min(degrees) < 2:
            raise bad(f"{status} with degrees {degrees}")
        if method not in (HIGHER_DEGREE_METHODS if max(degrees) > 2 else DEGREE_TWO_METHODS):
            raise bad(f"method {method!r} for degrees {degrees}")
        if grh and method != METHOD_BACKEND:
            raise bad(f'"grh" true with method {method!r}')
    elif degrees != (None, None) or grh or method != {STATUS_RATIONAL: METHOD_CERTIFICATE}.get(status):
        raise bad(f"{status} with degrees {degrees}, method {method!r} and grh {grh}")


def cross_check(results: Iterable, rows: Optional[Mapping[int, ResultRow]] = None) -> CrossCheckReport:
    """Validate a full scan result stream against the reference rows
    (load_fixtures() unless given).

    Checks: (a) no known-rational prime is classified NotStablyRational,
    and no prime whose reference row has degrees is classified Rational;
    (b) every unconditional NotStablyRational verdict lies outside the
    known-rational and undetermined sets; (c) every prime whose reference
    row is (2, 2, 0) is classified NotStablyRational with degrees (2, 2)
    unconditionally, and every degree d_s a row of the stream claims is 2
    exactly when some quadratic subfield obstructs sign s; (d) no
    undetermined-set prime has a sign obstructed by a quadratic subfield;
    (e) for every reference row with degrees (d+, d-), d_s = 2 exactly
    when some quadratic subfield obstructs sign s.  Whether one does is
    read from the scan's own degree-2 stage (_scan_quadratic), run here
    once per prime for all three rules, not taken from the stream.

    The rules run in one pass over the primes, ascending, each read
    against its own reference row (the known-rational and undetermined
    sets are the RATIONAL and UNDETERMINED rows), so failures come by
    prime, each prime's in rule order; a prime above the reference table
    has no row and meets rule (c) only.

    Every row is checked by check_row first: a malformed row, or a second
    row for one prime, raises RowError naming its position in the stream
    (from 1) and its "p".
    """
    reference = load_fixtures() if rows is None else rows
    verdicts: dict[int, dict] = {}
    seen: set[int] = set()
    for i, rec in enumerate(results, 1):
        row = rec.to_row() if isinstance(rec, (Verdict, ScanError)) else rec
        check_row(row, i, seen)
        if "status" in row:  # error records leave their prime uncovered
            verdicts[row["p"]] = row

    failures: list[str] = []
    missing = sorted(reference.keys() - verdicts.keys())
    if missing:
        failures.append(f"incomplete coverage: {len(missing)} primes missing (first: {missing[:5]})")
        return CrossCheckReport(False, tuple(failures), len(verdicts))

    quadratic = cache(_scan_quadratic)

    def degree_two_rule(rule: str, p: int, source: str, degrees) -> None:
        for sign, d in zip((1, -1), degrees):
            if d is None:
                continue
            obstructed = quadratic(p)[sign] is not None
            if (d == 2) != obstructed:
                failures.append(
                    f"({rule}) prime {p}: {source} d{'+' if sign > 0 else '-'} = {d}, but "
                    f"sign {sign:+d} is {'' if obstructed else 'not '}"
                    f"obstructed by a quadratic subfield"
                )

    for p, row in sorted(verdicts.items()):
        ref = reference.get(p)  # None above the reference table
        status = row["status"]
        if ref == RATIONAL and status == STATUS_NOT_STABLY_RATIONAL:
            failures.append(f"(a) known-rational prime {p} classified NotStablyRational")
        if isinstance(ref, tuple) and status == STATUS_RATIONAL:
            failures.append(f"(a) prime {p}: reference row {ref} but classified Rational")

        if status == STATUS_NOT_STABLY_RATIONAL and not row["grh"] and ref in (RATIONAL, UNDETERMINED):
            failures.append(
                f"(b) unconditional NotStablyRational verdict for {p}, which is in "
                f"the {'known-rational' if ref == RATIONAL else 'undetermined'} set"
            )

        if ref == (2, 2, 0):
            got = (status, row["d_plus"], row["d_minus"], row["grh"])
            want = (STATUS_NOT_STABLY_RATIONAL, 2, 2, False)
            if got != want:
                failures.append(f"(c) prime {p}: reference row (2,2,0) but verdict {got}")
        degree_two_rule("c", p, "verdict", (row["d_plus"], row["d_minus"]))

        if ref == UNDETERMINED:
            # the discriminants ascend, so the first obstructed (D, sign) has
            # the least D, and +1 before -1 at one D
            obstructed = [(w["disc"], sign) for sign, w in quadratic(p).items() if w]
            if obstructed:
                disc, sign = min(obstructed, key=lambda ds: (ds[0], -ds[1]))
                failures.append(
                    f"(d) undetermined-set prime {p} fails a degree-2 test "
                    f"(first: discriminant {disc}, sign {sign:+d})"
                )

        if isinstance(ref, tuple):
            degree_two_rule("e", p, "reference", ref[:2])

    return CrossCheckReport(not failures, tuple(failures), len(verdicts))
