"""Norm-equation tooling: exact norms, certificate search, backend client.

The norm of an element a(t) in the number field Q[x]/(g) is the product of
a over all roots of g, computed exactly as a resultant.  An element whose
norm hits a target integer is a positive certificate; `certificate_search`
looks for a sparse one inside a prime above the target.  Negative
(unsolvability) answers for fields of degree > 2 are delegated to an
external solver process speaking a line-delimited JSON protocol; every
claim it makes is either re-verified locally (witnesses) or tagged with its
certification flags (unsolvable), never trusted blindly.
"""

from __future__ import annotations

import json
import os
import selectors
import shlex
import subprocess
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .arith import is_prime, power_table, split_prime
from .polyops import degree, normalize, poly_eval, resultant

__all__ = [
    "NormProblem",
    "BackendDecision",
    "BackendError",
    "BackendUnavailableError",
    "BackendProtocolError",
    "BackendVerificationError",
    "BackendClient",
    "norm_of",
    "certificate_search",
]

BACKEND_ENV_VAR = "NOETHER_BACKEND"


def norm_of(g: Sequence[int], a: Sequence[int]) -> int:
    """Exact field norm of a(t) in Q[x]/(g): the product of a over the
    roots of g, as the resultant Res(g, a).

    g must be monic (low-order coefficients first).  Squarefreeness of g is
    the caller's responsibility; it is proven where minimal polynomials are
    made (see NormProblem), not in this inner loop.
    """
    gn = normalize(list(g))
    if degree(gn) < 1 or gn[-1] != 1:
        raise ValueError("g must be monic of degree >= 1")
    return resultant(gn, normalize(list(a)))


@dataclass(frozen=True)
class NormProblem:
    """Ask whether some algebraic integer in Q[x]/(minpoly) has norm target.

    minpoly (low-order coefficients first) must be monic of degree >= 1,
    so its last entry is 1 and it has no trailing zeros, and |target| must
    be prime; plain raises, which survive python -O, check both.  minpoly
    must also be squarefree.  That is not proven again here: it is proven
    where minimal polynomials are made, in cyclotomic, by raising checks
    of their two producers: subfield_minpoly (conjugate images pairwise
    distinct, or else a nonzero exact discriminant) and
    cyclotomic_polynomial (an exact divisor of the separable x^n - 1)."""

    minpoly: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if len(self.minpoly) < 2 or self.minpoly[-1] != 1:
            raise ValueError("minpoly must be monic of degree >= 1")
        if not is_prime(abs(self.target)):
            raise ValueError("|target| must be prime")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


@dataclass(frozen=True)
class BackendDecision:
    """Backend verdict for a NormProblem.

    outcome is one of "solvable", "unsolvable", "unknown".  Only
    outcome == "unsolvable" constitutes proof of unsolvability, and it is
    only produced for certified answers (after any GRH downgrade).  A
    "solvable" outcome always carries a locally re-verified witness.
    """

    outcome: str
    witness: Optional[tuple[int, ...]]
    certified: bool
    grh: bool


class BackendError(Exception):
    pass


class BackendUnavailableError(BackendError):
    pass


class BackendProtocolError(BackendError):
    pass


class BackendVerificationError(BackendError):
    pass


def _split_prime(g: Sequence[int], m: int, q: int) -> tuple[int, list[int], list[int]]:
    """The data of the norm filter of `certificate_search`: (ell, zpow, ks)
    for (ell, z) = arith.split_prime(m, q), with zpow[k] = z^k mod ell for
    0 <= k < m and ks the k, ascending, with g(z^k) = 0 (mod ell): at most
    deg g of them, as the z^k are distinct."""
    ell, z = split_prime(m, q)
    zpow = power_table(z, m, ell)
    ks = [k for k in range(m) if poly_eval(g, zpow[k]) % ell == 0]
    return ell, zpow, ks


def certificate_search(prob: NormProblem, bound: int) -> Optional[tuple[int, ...]]:
    """Search the elements 1 + a*theta^i + b*theta^j for one of exact norm
    prob.target, where theta is the root of prob.minpoly.

    Let q = |target| and let r be the least nonzero root of minpoly mod q,
    of multiplicative order m.  Candidates have 0 < i < j < m and nonzero
    a, b in [-bound, bound] with b a unit mod q; an element of norm ±q
    generates a prime above q, so only the members of the prime
    (q, theta - r) are tried: 1 + a*r^i + b*r^j = 0 (mod q) fixes r^j, and a
    table of discrete logarithms of the powers of r gives j.  Candidates
    are taken in the order of i, a, b (each ascending) and the first one of
    exact norm target is returned as its coefficients in the power basis.

    For the cyclotomic polynomial of Q(zeta_n) and q not dividing n, r has
    order n and the family is the set of 1 + a*zeta^i + b*zeta^j, which the
    Galois group permutes.  The group moves the primes above q transitively
    and keeps norms, so if a member has norm target, a conjugate member lies
    in (q, theta - r): testing one prime is enough.  None proves nothing:
    an element of norm target may lie outside the family.

    A member is skipped before its exact norm when a split prime shows the
    norm is not target.  Let ell be the least prime = 1 (mod m) other than
    q, z of exact order m mod ell, and k_1..k_s the exponents with
    minpoly(z^k) = 0 (mod ell) (see `_split_prime`).  The z^k are distinct,
    so if s = d = deg minpoly then minpoly = prod_k (x - z^k) (mod ell),
    because minpoly is monic.  The norm of alpha is Res(minpoly, alpha), the
    determinant of an integer Sylvester matrix, and it reduces mod ell to
    the resultant over F_ell, which for a monic first argument is the
    product of alpha over its roots: N(alpha) = prod_k alpha(z^k) (mod ell).
    Reducing alpha mod minpoly leaves each alpha(z^k) unchanged, so for the
    member 1 + a*theta^i + b*theta^j the residue is
    prod_k (1 + a*z^(k*i) + b*z^(k*j)), and a member whose residue is not
    target mod ell cannot have norm target.  With s < d nothing is skipped.
    ell differs from q because target = 0 (mod q) and every member of the
    prime has a root of minpoly mod q as a zero, so mod q nothing would be
    skipped.  The filter only prunes: the order of candidates and the exact
    norm of the one returned are unchanged.  An ell not below 2^64 raises
    ArithmeticError (arith.split_prime); for q < 20000 ell is below 10^6.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    g = list(prob.minpoly)
    d = prob.degree
    t = prob.target
    if d == 1:
        # norm of the constant a0 is a0 itself
        return (t,) if abs(t) <= bound else None

    q = abs(t)
    r = next((x for x in range(1, q) if poly_eval(g, x) % q == 0), None)
    if r is None:
        # no prime (q, theta - r) with r a unit, and (q, theta) holds no
        # member: 1 + a*0 + b*0 = 1
        return None
    log = {1: 0}
    powers = [[1] + [0] * (d - 1)]  # theta^k reduced mod minpoly
    x = r
    while x != 1:
        log[x] = len(powers)
        top = powers[-1][-1]
        shifted = [0] + powers[-1][:-1]
        powers.append([c - top * gc for c, gc in zip(shifted, g)] if top else shifted)
        x = x * r % q
    m = len(powers)
    ell, zpow, ks = _split_prime(g, m, q)
    if len(ks) < d:
        ks = []
    t_ell = t % ell
    coeffs = [c for c in range(-bound, bound + 1) if c]
    inverse = {b: pow(b, -1, q) for b in coeffs if b % q}
    for i in range(1, m):
        ri = pow(r, i, q)
        zi = [zpow[k * i % m] for k in ks]
        for a in coeffs:
            for b, b_inv in inverse.items():
                j = log.get(-(1 + a * ri) * b_inv % q)
                if j is None or j <= i:
                    continue
                if ks:
                    residue = 1
                    for k, u in zip(ks, zi):
                        residue = residue * (1 + a * u + b * zpow[k * j % m]) % ell
                    if residue != t_ell:
                        continue
                alpha = [a * u + b * v for u, v in zip(powers[i], powers[j])]
                alpha[0] += 1
                if norm_of(g, alpha) == t:
                    return tuple(alpha)
    return None


class BackendClient:
    """Client for one external norm-equation solver child process.

    The protocol is line-delimited JSON on the child's standard streams.
    Request:  {"id": n, "minpoly": [c0, ..., cd], "target": t}
    Response: {"id": n, "outcome": "solvable"|"unsolvable"|"unknown",
               "witness": [a0, ..., a_{d-1}] (required when solvable),
               "certified": bool, "grh": bool}

    `send` is one whole exchange: it writes a batch of requests (the scan
    sends every request of one subfield degree at once), reads exactly one
    answer line per request, and returns the decisions of the batch, in
    request order, each made by `decide` as it is read from the iterator.
    So the solver must answer each request with one line, in request
    order, and must keep reading its input while it writes, as a loop that
    answers one line at a time does.  A batch whose reads end with more
    lines than requests, or with a partial line, is a protocol error.  A
    solver that moves no byte either way for ANSWER_TIMEOUT_S is killed
    and reaped, and the exchange raises BackendUnavailableError, as does
    every later one.  `close` closes the solver's input, waits up to
    CLOSE_TIMEOUT_S for the end of its output, and kills it if that does
    not come.

    A client owns its child process and must be used by one thread at a
    time; run several clients for parallelism.
    """

    # A guard against a hung solver, not a measured bound: no real solver's
    # latency on the largest request (degree 54, GRH) has been timed, and a
    # slower correct answer costs every later backend prime of the client.
    ANSWER_TIMEOUT_S = 300.0
    CLOSE_TIMEOUT_S = 2.0
    _READ_SIZE = 1 << 16

    def __init__(self, command: Union[str, Sequence[str]]):
        args = shlex.split(command) if isinstance(command, str) else list(command)
        if not args:
            raise BackendUnavailableError("empty backend command")
        self._next_id = 0
        try:
            self._proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                bufsize=0,
            )
        except OSError as exc:
            raise BackendUnavailableError(f"cannot start backend {args[0]!r}: {exc}") from exc
        self._wfd = self._proc.stdin.fileno()
        self._rfd = self._proc.stdout.fileno()
        os.set_blocking(self._wfd, False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._rfd, selectors.EVENT_READ)

    def send(self, probs: Sequence[NormProblem], grh_allowed: bool = False) -> Iterator[BackendDecision]:
        """Write one request per problem, numbered in order, read one answer
        line per request, and return an iterator that decides each answer
        in request order (see `decide`); an answer not taken from it is
        never judged.  One loop waits on both pipes, so a batch larger than
        both pipe buffers cannot deadlock."""
        if probs and self._proc.poll() is not None:
            raise BackendUnavailableError("backend process has exited")
        first = self._next_id + 1
        self._next_id += len(probs)
        data = memoryview("".join(
            json.dumps({"id": rid, "minpoly": list(prob.minpoly), "target": prob.target}) + "\n"
            for rid, prob in enumerate(probs, first)).encode())
        lines: list[bytes] = []
        tail = b""
        data = data[self._write(data):]
        if data:
            self._sel.register(self._wfd, selectors.EVENT_WRITE)
        try:
            while data or len(lines) < len(probs):
                ready = {key.fd for key, _ in self._sel.select(self.ANSWER_TIMEOUT_S)}
                if not ready:
                    self._proc.kill()
                    self._proc.wait()
                    raise BackendUnavailableError(f"backend moved no byte for {self.ANSWER_TIMEOUT_S} s")
                if self._wfd in ready:
                    data = data[self._write(data):]
                    if not data:
                        self._sel.unregister(self._wfd)
                if self._rfd in ready:
                    chunk = os.read(self._rfd, self._READ_SIZE)
                    if not chunk:
                        raise BackendUnavailableError("backend closed its output stream")
                    *complete, tail = (tail + chunk).split(b"\n")
                    lines.extend(complete)
        finally:
            if data:
                self._sel.unregister(self._wfd)
        if len(lines) > len(probs) or tail:
            raise BackendProtocolError(
                f"backend sent {len(lines)} lines{' and a partial line' if tail else ''} "
                f"for {len(probs)} requests"
            )
        return (self.decide(prob, rid, line, grh_allowed)
                for rid, (prob, line) in enumerate(zip(probs, lines), first))

    def decide(self, prob: NormProblem, rid: int, line: bytes, grh_allowed: bool) -> BackendDecision:
        """The decision of the answer `line` to request `rid`, which asked prob.

        Solvable answers are re-verified locally before being accepted.
        Uncertified or GRH-only (when grh_allowed is false) unsolvability
        claims are downgraded to unknown.  Protocol violations raise, they
        never silently degrade: a line that is no JSON object, nests too
        deep to parse or holds an integer too long to convert raises
        BackendProtocolError, whose message quotes at most 80 characters
        of what the backend sent.
        """
        try:
            resp = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise BackendProtocolError(f"backend sent invalid JSON: {line!r:.80}") from exc
        if not isinstance(resp, dict):
            raise BackendProtocolError(f"backend response is not an object: {resp!r:.80}")
        if type(resp.get("id")) is not int or resp["id"] != rid:
            raise BackendProtocolError(
                f"backend answered id {resp.get('id')!r:.80}, expected {rid}"
            )
        outcome = resp.get("outcome")
        if outcome not in ("solvable", "unsolvable", "unknown"):
            raise BackendProtocolError(f"backend sent unknown outcome {outcome!r:.80}")
        certified = resp.get("certified")
        grh = resp.get("grh")
        if not isinstance(certified, bool) or not isinstance(grh, bool):
            raise BackendProtocolError("backend response missing certified/grh booleans")

        if outcome == "solvable":
            witness = resp.get("witness")
            if (
                not isinstance(witness, list)
                or len(witness) != prob.degree
                or not all(isinstance(c, int) and not isinstance(c, bool) for c in witness)
            ):
                raise BackendProtocolError(
                    f"solvable response needs an integer witness of length {prob.degree}"
                )
            got = norm_of(list(prob.minpoly), witness)
            if got != prob.target:
                raise BackendVerificationError(
                    f"backend witness has norm {got}, wanted {prob.target}"
                )
            return BackendDecision("solvable", tuple(witness), certified, grh)
        proof = outcome == "unsolvable" and certified and (grh_allowed or not grh)
        return BackendDecision("unsolvable" if proof else "unknown", None, certified, grh)

    def _write(self, data: memoryview) -> int:
        try:
            return os.write(self._wfd, data)
        except BlockingIOError:
            return 0
        except OSError as exc:
            raise BackendUnavailableError(f"cannot write to backend: {exc}") from exc

    def close(self) -> None:
        """Close the child's input, wait for the end of its output and reap
        it; after CLOSE_TIMEOUT_S it is killed and reaped without reading
        on, so a grandchild holding the pipe cannot hold up the close."""
        sel = getattr(self, "_sel", None)
        if sel is None:
            return  # never started, or closed already
        self._sel = None
        proc = self._proc
        try:
            proc.communicate(timeout=self.CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            sel.close()
            proc.stdout.close()

    def __enter__(self) -> "BackendClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

