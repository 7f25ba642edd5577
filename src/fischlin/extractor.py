"""Straight-line witness extraction from a recorded oracle transcript.

A prover that grinds challenges leaves a trail: for each repetition the
transcript holds every attempted (challenge, response) pair, all of them
valid sigma transcripts for the same commitment. The extractor sorts the
log once and walks it for two valid entries sharing the commitment vector
and repetition index but differing in challenge, then runs
special-soundness extraction. No rewinding, no extra queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import groupby, islice

from . import transform
from .oracle import RecordingOracle, _encode_prefix

__all__ = [
    "Status",
    "ExtractionOutcome",
    "extract",
    "run_online_experiment",
    "ExperimentResult",
    "attempts_per_repetition",
]


class Status(enum.Enum):
    EXTRACTED = "Extracted"
    NO_PAIR_FOUND = "NoPairFound"
    UNIQUE_RESPONSE_VIOLATION = "UniqueResponseViolation"


@dataclass(frozen=True)
class ExtractionOutcome:
    status: Status
    witness: object = None
    pair: tuple | None = None
    details: str | None = None

    def to_json(self) -> dict:
        out = {"status": self.status.value}
        if self.witness is not None:
            out["w"] = str(self.witness.w)
        if self.details:
            out["details"] = self.details
        return out


def extract(params, protocol, instance, proof, transcript) -> ExtractionOutcome:
    """Search the transcript for a special-soundness pair in one sorted pass.

    Entries are sorted once: those prefixed by the proof's commitment
    vector first, then every other recorded vector, each in canonical
    input-encoding order. The prefix encoding is prefix-free and every tail
    starts with i, so the entries of one (vector, repetition) pair are
    adjacent. Each such group is sigma-verified lazily, stopping at its
    first two valid entries, and the first group that has two decides: the
    pair that is lexicographically first in the encoding wins. A pair with
    equal challenges but distinct responses is surfaced as a unique-response
    violation instead of being skipped. The caller must have verified the
    proof already.
    """
    # equal prefixes mean equal vectors, and bytes compare faster than tuples
    own = _encode_prefix(params, protocol, proof.a_vec)
    ordered = sorted(transcript.entries, key=lambda e: (e.prefix != own, e.prefix, e.tail))
    for _, group in groupby(ordered, key=lambda e: (e.prefix, e.inp.i)):
        valid = (e.inp for e in group
                 if protocol.verify(instance, e.inp.a_vec[e.inp.i - 1], e.inp.c, e.inp.z))
        pair = list(islice(valid, 2))
        if len(pair) == 2:
            break
    else:
        return ExtractionOutcome(Status.NO_PAIR_FOUND)
    u, v = pair
    if u.c == v.c:
        return ExtractionOutcome(
            Status.UNIQUE_RESPONSE_VIOLATION, pair=(u, v),
            details=f"two valid responses for repetition {u.i}, challenge {u.c}")
    w = protocol.extract(instance, u.a_vec[u.i - 1], u.c, u.z, v.c, v.z)
    return ExtractionOutcome(Status.EXTRACTED, witness=w, pair=(u, v))


@dataclass(frozen=True)
class ExperimentResult:
    instance: object
    proof: object
    verdict: bool
    outcome: ExtractionOutcome | None
    transcript: object


def run_online_experiment(params, protocol, prover, seed: bytes) -> ExperimentResult:
    """Run a prover against a fresh recording oracle, verify its proof
    through the same oracle (so verifier queries enter the transcript),
    then extract. The oracle simulation is exact: the prover sees the same
    answers it would against the plain seeded oracle.

    ``prover`` is a callback taking the oracle handle and returning
    (instance, proof); its exceptions propagate. Extraction is skipped for
    rejected proofs.
    """
    oracle = RecordingOracle(params, protocol, seed)
    instance, proof = prover(oracle)
    verdict = transform.verify(params, protocol, instance, proof, oracle)
    outcome = None
    if verdict:
        outcome = extract(params, protocol, instance, proof, oracle.transcript)
    return ExperimentResult(instance, proof, verdict, outcome, oracle.transcript)


def attempts_per_repetition(proof, transcript) -> list[int]:
    """How many challenges each repetition ground through, counted from
    the recorded queries prefixed by the proof's commitment vector."""
    counts = [0] * len(proof.a_vec)
    for e in transcript.entries:
        if e.inp.a_vec == proof.a_vec:
            counts[e.inp.i - 1] += 1
    return counts
