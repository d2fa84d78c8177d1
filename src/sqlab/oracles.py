"""Statistical-query oracle simulation.

An :class:`OracleSpec` fixes the oracle kind and its tolerance parameter; an
:class:`AnswerStrategy` decides how answers are produced (exact values,
empirical means over k samples, answers from a fixed reference distribution,
or adversarial answers pinned to the tolerance boundary). A
:class:`OracleSession` binds spec, strategy, and the true distribution, and
records every exchange in a :class:`Transcript` together with a validity
flag checked against the true distribution.

Queries are answered in blocks. ``OracleSession.scan(block, stop)`` takes
the rows of a 2-D array (or a sequence of ``QueryFn``s and value vectors),
checks the block's shape and range once, and computes every true value in
one matrix-vector product. Exact, reference and edge answers come for the
whole block in the same vector pass, and the first row at which the
vectorized predicate ``stop(rows, answers)`` holds is found with one
``flatnonzero``; sampled answers come row by row, only up to that row, from
the stream solver's loop ``core.SampleStream.scan``: each row's mean over
fresh samples, ``draw_sum(k, row) / k`` (the mean over the k samples
``draw_indices`` would list, bit for bit on integer-valued rows), so the
rng and ``samples_used`` end where j + 1 single queries would leave them.
Only the consumed rows 0..j are asked: their transcript entries go in as
one columnar append, with validity from ``valid_answers``, the array form
of ``validate``. ``OracleSession.query`` is a one-row block.

A :class:`Transcript` keeps each answered block as numpy arrays (answers,
validity flags, true values) under the block's kind and param, counts its
entries and valid entries as blocks arrive, and builds
:class:`TranscriptEntry` objects only when they are read.

Oracle kinds:

- STAT(tau): queries phi: X -> [-1,1]; any answer within tau of E_D[phi] is
  valid.
- VSTAT(n): queries phi: X -> [0,1]; valid within max(1/n, sqrt(p/n)) of
  p = E_D[phi]. The classical tolerance max(1/n, sqrt(p(1-p)/n)) sits behind
  ``vstat_strict=True``; the default is the slightly weaker form, which is
  what the conversions below are calibrated for.
- VROOT(tau): queries phi: X -> [0,1]; valid when |sqrt(v) - sqrt(p)| <= tau
  (answers below 0 are never valid).
- ONE_STAT(b): evaluates a {0,..,2^b - 1}-valued query on one fresh sample.

``bridge_pair`` / ``bridge_value`` implement the two tolerance conversions
between VSTAT and VROOT: a VROOT(tau) query can be served by a VSTAT(1/tau^2)
answer, and a VSTAT(n) query by a VROOT(1/(3 sqrt(n))) answer, validity
preserved in both directions.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .core import UNIT, FiniteDistribution, QueryFn, SampleStream, sqrt_gap, sqrt_scale
from .errors import SqlabError

__all__ = [
    "STAT",
    "VSTAT",
    "VROOT",
    "ONE_STAT",
    "OracleSpec",
    "stat",
    "vstat",
    "vroot",
    "one_stat_spec",
    "tolerance",
    "validate",
    "valid_answers",
    "AnswerStrategy",
    "exact_answers",
    "sampled_answers",
    "reference_answers",
    "edge_answers",
    "one_stat",
    "TranscriptEntry",
    "Transcript",
    "OracleSession",
    "bridge_pair",
    "bridge_value",
]

STAT = "stat"
VSTAT = "vstat"
VROOT = "vroot"
ONE_STAT = "onestat"

#: Absolute slack when checking validity, so answers computed to sit exactly
#: on the tolerance boundary do not flip invalid through float rounding.
VALIDITY_ATOL = 1e-12


def _is_count(value) -> bool:
    """Whether ``value`` is an integer (of any integer type) of at least 1."""
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class OracleSpec:
    """Oracle kind plus its tolerance parameter."""

    kind: str
    tau: float | None = None
    n: float | None = None
    bits: int | None = None
    vstat_strict: bool = False

    def __post_init__(self):
        # each test is written so that NaN fails it
        if self.kind == STAT:
            if self.tau is None or not (0 < self.tau <= 2):
                raise ValueError("STAT needs a tolerance tau in (0, 2]")
        elif self.kind == VSTAT:
            if self.n is None or not self.n >= 1:
                raise ValueError("VSTAT needs a sample-size parameter n >= 1")
        elif self.kind == VROOT:
            if self.tau is None or not (0 < self.tau <= 1):
                raise ValueError("VROOT needs a tolerance tau in (0, 1]")
        elif self.kind == ONE_STAT:
            if not _is_count(self.bits):
                raise ValueError("ONE_STAT needs a positive integer bit width")
        else:
            raise ValueError(f"unknown oracle kind {self.kind!r}")

    @property
    def param(self) -> float:
        """The single tolerance parameter recorded in transcripts."""
        if self.kind == STAT or self.kind == VROOT:
            return float(self.tau)
        if self.kind == VSTAT:
            return float(self.n)
        return float(self.bits)


def stat(tau: float) -> OracleSpec:
    return OracleSpec(kind=STAT, tau=tau)


def vstat(n: float, strict: bool = False) -> OracleSpec:
    return OracleSpec(kind=VSTAT, n=n, vstat_strict=strict)


def vroot(tau: float) -> OracleSpec:
    return OracleSpec(kind=VROOT, tau=tau)


def one_stat_spec(bits: int) -> OracleSpec:
    return OracleSpec(kind=ONE_STAT, bits=bits)


def _tolerances(spec: OracleSpec, p: np.ndarray) -> np.ndarray:
    """``tolerance`` at every true value in ``p``."""
    if spec.kind == STAT or spec.kind == VROOT:
        return np.full_like(p, float(spec.tau))
    if spec.kind == VSTAT:
        spread = p * (1.0 - p) if spec.vstat_strict else p
        return np.maximum(1.0 / spec.n, sqrt_scale(spread / spec.n))
    raise ValueError(f"tolerance undefined for oracle kind {spec.kind!r}")


def tolerance(spec: OracleSpec, p: float) -> float:
    """The allowed answer deviation at true value p (sqrt scale for VROOT)."""
    return float(_tolerances(spec, np.float64(p)))


def valid_answers(spec: OracleSpec, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Which answers ``v`` are valid for queries with true values ``p``
    (elementwise; the one validity rule, which ``validate`` applies to a
    single answer)."""
    if spec.kind == VROOT:
        # answers below 0 are never valid; the clip only keeps sqrt quiet
        return (v >= 0) & (sqrt_gap(v, p) <= spec.tau + VALIDITY_ATOL)
    return np.abs(v - p) <= _tolerances(spec, p) + VALIDITY_ATOL


def validate(spec: OracleSpec, p: float, v: float) -> bool:
    """Is answer v valid for a query with true value p?"""
    return bool(valid_answers(spec, np.float64(p), np.float64(v)))


# ---------------------------------------------------------------------------
# answer strategies
# ---------------------------------------------------------------------------

EXACT_MODE = "exact"
SAMPLED_MODE = "sampled"
REFERENCE_MODE = "reference"
EDGE_MODE = "edge"


@dataclass(frozen=True)
class AnswerStrategy:
    """How oracle answers are produced.

    - exact: the true expectation.
    - sampled: an empirical mean over ``samples`` fresh draws.
    - reference: expectations under a fixed other distribution (the classic
      adversary for decision problems — answers are valid until a query
      actually distinguishes).
    - edge: the true value pushed exactly to the tolerance boundary in
      ``direction`` (worst answers that are still valid).
    """

    mode: str
    samples: int | None = None
    reference: FiniteDistribution | None = None
    direction: int = 1

    def __post_init__(self):
        if self.mode not in (EXACT_MODE, SAMPLED_MODE, REFERENCE_MODE, EDGE_MODE):
            raise ValueError(f"unknown strategy mode {self.mode!r}")
        if self.mode == SAMPLED_MODE and not _is_count(self.samples):
            raise ValueError("sampled strategy needs a positive integer sample count")
        if self.mode == REFERENCE_MODE and self.reference is None:
            raise ValueError("reference strategy needs a distribution")
        if self.mode == EDGE_MODE and self.direction not in (-1, 1):
            raise ValueError("edge strategy direction must be +-1")


def exact_answers() -> AnswerStrategy:
    return AnswerStrategy(mode=EXACT_MODE)


def sampled_answers(samples: int) -> AnswerStrategy:
    return AnswerStrategy(mode=SAMPLED_MODE, samples=samples)


def reference_answers(reference: FiniteDistribution) -> AnswerStrategy:
    return AnswerStrategy(mode=REFERENCE_MODE, reference=reference)


def edge_answers(direction: int = 1) -> AnswerStrategy:
    return AnswerStrategy(mode=EDGE_MODE, direction=direction)


def _block_values(spec: OracleSpec, dist: FiniteDistribution, block) -> np.ndarray:
    """The value rows of a query block as one (rows, |X|) array.

    ``block`` is a 2-D array or a sequence of ``QueryFn``s and value
    vectors. Its shape and the range of every row are checked here, once,
    before any row is answered: VSTAT and VROOT take UNIT queries (values in
    [0, 1]), STAT takes values in [-1, 1]. A 2-D float array is used as it
    is (when C-contiguous), not copied.
    """
    n = len(dist.weights)
    if isinstance(block, np.ndarray) and block.ndim == 2:
        values = np.ascontiguousarray(block, dtype=float)
    else:
        rows = []
        for query in block:
            if isinstance(query, QueryFn):
                if query.domain != dist.domain:
                    raise SqlabError("query and distribution domains differ")
                if spec.kind in (VSTAT, VROOT) and query.range_tag != UNIT:
                    raise ValueError(f"{spec.kind} queries must have UNIT range")
                rows.append(query.values)
            else:
                row = np.asarray(query, dtype=float)
                if row.shape != (n,):
                    raise SqlabError("query vector length does not match the domain")
                rows.append(row)
        values = np.array(rows, dtype=float).reshape(len(rows), n)
    if values.shape[1:] != (n,):
        raise SqlabError("query vector length does not match the domain")
    lo = -1.0 if spec.kind == STAT else 0.0
    # written so that NaN, which min and max propagate, fails it
    if values.size and not (values.min() >= lo - 1e-12 and values.max() <= 1 + 1e-12):
        raise ValueError(f"{spec.kind} queries must take values in [{lo:g},1]")
    return values


def _answer_block(
    spec: OracleSpec,
    strategy: AnswerStrategy,
    dist: FiniteDistribution,
    block,
):
    """``(values, true values, answers)`` of a query block.

    The block is checked and the true values (and the exact, reference or
    edge answers) are computed for all rows at once, before any row is
    answered. Sampled answers are None here: the session draws them row by
    row, only for the rows a caller consumes.
    """
    values = _block_values(spec, dist, block)
    # einsum sums each row in an order that does not depend on the other
    # rows (BLAS matrix-vector kernels do), so a query's true value is the
    # same whichever block it is asked in
    p = np.einsum("ij,j->i", values, dist.weights)
    if strategy.mode == EXACT_MODE:
        return values, p, p
    if strategy.mode == REFERENCE_MODE:
        return values, p, np.einsum("ij,j->i", values, strategy.reference.weights)
    if strategy.mode == EDGE_MODE:
        # push exactly to the boundary, staying valid
        if spec.kind != VROOT:
            return values, p, p + strategy.direction * _tolerances(spec, p)
        root = np.maximum(sqrt_scale(p) + strategy.direction * spec.tau, 0.0)
        # Python's float power, not numpy's square: the two differ in the
        # last bit on some inputs, and these answers keep the bits they had
        return values, p, np.array([r**2 for r in root.tolist()])
    return values, p, None


def one_stat(
    dist: FiniteDistribution,
    values: Sequence[int],
    bits: int,
    rng: np.random.Generator,
) -> int:
    """Evaluate a {0,..,2^b-1}-valued query on one fresh sample from D."""
    vals = np.asarray(values)
    if vals.shape != dist.weights.shape:
        raise SqlabError("query vector length does not match the domain")
    if np.any(vals < 0) or np.any(vals >= (1 << bits)) or not np.issubdtype(vals.dtype, np.integer):
        raise ValueError(f"one-sample query values must be integers in [0, 2^{bits})")
    i = int(dist.sample_indices(rng, 1)[0])
    return int(vals[i])


# ---------------------------------------------------------------------------
# transcripts and sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    index: int
    kind: str
    param: float
    value: float
    valid: bool
    true_value: float


class Transcript:
    """Ordered record of oracle exchanges; __len__ is the query count.

    An oracle session extends the record one answered block at a time. Each
    block is kept as it came, as private numpy copies of its answer,
    validity and true-value columns with its one kind and parameter, and
    running counts of the entries and of the valid entries give ``len`` and
    ``valid_fraction``. ``entries``, iteration and ``to_jsonl`` build the
    :class:`TranscriptEntry` objects, with plain Python floats and bools,
    only when they are read.
    """

    def __init__(self):
        self._blocks: list = []  # (kind, param, values, valid, true values)
        self._count = 0
        self._valid_count = 0

    def extend(self, kind: str, param: float, values, valid, true_values) -> None:
        """Record a block of exchanges under one oracle kind and parameter:
        parallel sequences (or 1-D arrays) of answers, validity flags and
        true values. The columns are copied, so the caller may reuse them."""
        values = np.array(values, dtype=float)
        valid = np.array(valid, dtype=bool)
        true_values = np.array(true_values, dtype=float)
        if not (values.ndim == 1 and values.shape == valid.shape == true_values.shape):
            raise ValueError("transcript columns must have one value per exchange")
        if values.size:
            self._blocks.append((kind, param, values, valid, true_values))
            self._count += values.size
            self._valid_count += int(np.count_nonzero(valid))

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        index = 0
        for kind, param, values, valid, true_values in self._blocks:
            for row in zip(values.tolist(), valid.tolist(), true_values.tolist()):
                yield TranscriptEntry(index, kind, param, *row)
                index += 1

    @property
    def entries(self) -> list:
        return list(self)

    @property
    def valid_fraction(self) -> float:
        if not self._count:
            return 1.0
        return self._valid_count / self._count

    def to_jsonl(self, fp: IO[str] | str) -> None:
        """One JSON object per line: {index, kind, param, value, valid}."""
        lines = [
            json.dumps(
                {
                    "index": e.index,
                    "kind": e.kind,
                    "param": e.param,
                    "value": e.value,
                    "valid": e.valid,
                }
            )
            for e in self
        ]
        payload = "\n".join(lines) + ("\n" if lines else "")
        if isinstance(fp, str):
            with open(fp, "w") as handle:
                handle.write(payload)
        else:
            fp.write(payload)


class OracleSession:
    """An oracle bound to one true distribution, strategy, and transcript.

    The session knows the true distribution in order to flag each answer's
    validity; solvers only ever see the answers.
    """

    def __init__(
        self,
        spec: OracleSpec,
        strategy: AnswerStrategy,
        dist: FiniteDistribution,
        rng: np.random.Generator | None = None,
    ):
        self.spec = spec
        self.strategy = strategy
        self.dist = dist
        self.rng = rng
        self._sampler = SampleStream(dist, rng) if strategy.mode == SAMPLED_MODE else None
        self.transcript = Transcript()
        self.samples_used = 0

    def scan(self, block, stop=None):
        """Answer the rows of ``block`` in order up to the first stop.

        ``block`` is a 2-D array or a sequence of ``QueryFn``s and value
        vectors; the whole block is checked before anything is recorded, so
        a bad block raises with nothing asked. ``stop(rows, answers)`` is
        an elementwise predicate over row indices (an index array, or one
        index) and their answers. Returns ``(j, answers)``: j is the first
        row at which ``stop`` holds (None when it never does, or when no
        ``stop`` is given), and ``answers`` holds the answers of the
        consumed rows 0..j (all rows when j is None), which are the only
        rows recorded in the transcript.
        """
        values, p, answers = _answer_block(self.spec, self.strategy, self.dist, block)
        j = None
        if answers is None:  # sampled: draw row by row, up to the stop
            if self.rng is None:
                raise ValueError("sampled answers need an rng")
            j, answers = self._sampler.scan(values, self.strategy.samples, stop)
            self.samples_used += len(answers) * self.strategy.samples
        elif stop is not None:
            hits = np.flatnonzero(stop(np.arange(len(p)), answers))
            j = int(hits[0]) if hits.size else None
        n = len(p) if j is None else j + 1
        self._record(p[:n], answers[:n])
        return j, answers[:n]

    def query(self, query) -> float:
        return float(self.scan([query])[1][0])

    def _record(self, p: np.ndarray, v: np.ndarray) -> None:
        self.transcript.extend(self.spec.kind, self.spec.param, v, valid_answers(self.spec, p, v), p)

    def one_sample(self, values: Sequence[int]) -> int:
        if self.spec.kind != ONE_STAT:
            raise ValueError("one_sample needs a ONE_STAT oracle spec")
        if self.rng is None:
            raise ValueError("ONE_STAT needs an rng")
        out = one_stat(self.dist, values, self.spec.bits, self.rng)
        self.samples_used += 1
        self.transcript.extend(ONE_STAT, float(self.spec.bits), [float(out)], [True], [float("nan")])
        return out

    @property
    def query_count(self) -> int:
        return len(self.transcript)


# ---------------------------------------------------------------------------
# the VSTAT <-> VROOT bridge
# ---------------------------------------------------------------------------


def bridge_pair(query_spec: OracleSpec) -> OracleSpec:
    """The backend oracle spec that can serve ``query_spec``'s queries.

    VROOT(tau) queries are served by VSTAT(1/tau^2) answers; VSTAT(n)
    queries by VROOT(1/(3 sqrt(n))) answers.
    """
    if query_spec.kind == VROOT:
        return vstat(1.0 / query_spec.tau**2)
    if query_spec.kind == VSTAT:
        return vroot(1.0 / (3.0 * math.sqrt(query_spec.n)))
    raise ValueError("bridge connects only VSTAT and VROOT specs")


def _anchored(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def bridge_value(query_spec: OracleSpec, backend_spec: OracleSpec, value: float) -> float:
    """Pass a backend answer through to the query side, checking the pairing.

    Any backend-valid answer is query-valid after this conversion:

    - |v - p| <= max(tau^2, sqrt(p) tau)  implies  |sqrt(v) - sqrt(p)| <= tau
      (answers are clipped at 0 first; clipping can only shrink |v - p|), and
    - |sqrt(v) - sqrt(p)| <= tau/3        implies  |v - p| <= max(tau^2, sqrt(p) tau)
      with tau = 1/sqrt(n).
    """
    expected = bridge_pair(query_spec)
    if backend_spec.kind != expected.kind:
        raise ValueError(
            f"backend kind {backend_spec.kind!r} cannot serve {query_spec.kind!r} queries"
        )
    if expected.kind == VSTAT and not _anchored(backend_spec.n, expected.n):
        raise ValueError("backend VSTAT parameter is not 1/tau^2 of the VROOT query")
    if expected.kind == VROOT and not _anchored(backend_spec.tau, expected.tau):
        raise ValueError("backend VROOT tolerance is not 1/(3 sqrt(n)) of the VSTAT query")
    if query_spec.kind == VROOT:
        return max(value, 0.0)
    return value
