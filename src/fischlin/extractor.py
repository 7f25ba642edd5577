"""Straight-line witness extraction from a recorded oracle transcript.

A prover that grinds challenges leaves a trail: for each repetition the
transcript holds every attempted (challenge, response) pair, all of them
valid sigma transcripts for the same commitment. The extractor sorts the
tails of each commitment vector's ``answers`` once (each recorded query
appears there once) and walks them for two valid entries sharing the
vector and repetition index but differing in challenge, then runs
special-soundness extraction. No rewinding, no extra queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter

from . import transform
from .oracle import RecordingOracle

__all__ = [
    "Status",
    "ExtractionOutcome",
    "extract",
    "run_online_experiment",
    "ExperimentResult",
    "attempts_per_repetition",
]

# A tail's leading u32, its repetition index i, as bytes.
_REPETITION = itemgetter(slice(0, 4))


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

    The proof's commitment vector comes first, then every other recorded
    vector in prefix-byte order; within a vector the tails are sorted as
    bytes, which is canonical input-encoding order. Every tail starts with
    i, so the entries of one (vector, repetition) pair are adjacent. Each
    such group is decoded and sigma-verified lazily, stopping at its first
    two valid entries, and the first group that has two decides: the pair
    that is lexicographically first in the encoding wins. A pair with equal
    challenges but distinct responses is surfaced as a unique-response
    violation instead of being skipped. The caller must have verified the
    proof already.
    """
    groups = (map(vec.input, group)
              for vec in sorted(transcript.vectors,
                                key=lambda v: (v.a_vec != proof.a_vec, v.prefix))
              for _, group in groupby(sorted(vec.answers), key=_REPETITION))
    for group in groups:
        valid = (u for u in group if protocol.verify(instance, u.a_vec[u.i - 1], u.c, u.z))
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
    the recorded tails of the proof's commitment vector."""
    counts = [0] * len(proof.a_vec)
    for vec in transcript.vectors:
        if vec.a_vec == proof.a_vec:
            for tail in vec.answers:
                counts[int.from_bytes(_REPETITION(tail), "big") - 1] += 1
    return counts
