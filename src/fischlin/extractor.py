"""Straight-line witness extraction from a recorded oracle transcript.

A prover that grinds challenges leaves a trail: for each repetition the
transcript holds every attempted (challenge, response) pair, all of them
valid sigma transcripts for the same commitment. The extractor scans the
log for two such entries sharing the commitment vector and repetition
index but differing in challenge, and runs special-soundness extraction.
No rewinding, no extra queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def _first_pair(entries):
    """Lexicographically first pair (by encoded-input order) of distinct
    entries sharing the repetition index. Entries must be pre-sorted."""
    for j, u in enumerate(entries):
        for v in entries[j + 1:]:
            if u.inp.i == v.inp.i:
                return u, v
    return None


def _scan(protocol, instance, entries):
    """Resolve the outcome over a sorted list of sigma-valid entries."""
    hit = _first_pair(entries)
    if hit is None:
        return ExtractionOutcome(Status.NO_PAIR_FOUND)
    u, v = hit
    if u.inp.c == v.inp.c:
        return ExtractionOutcome(
            Status.UNIQUE_RESPONSE_VIOLATION, pair=(u.inp, v.inp),
            details=f"two valid responses for repetition {u.inp.i}, "
                    f"challenge {u.inp.c}")
    w = protocol.extract(instance, u.inp.a_vec[u.inp.i - 1],
                         u.inp.c, u.inp.z, v.inp.c, v.inp.z)
    return ExtractionOutcome(Status.EXTRACTED, witness=w, pair=(u.inp, v.inp))


def extract(params, protocol, instance, proof, transcript) -> ExtractionOutcome:
    """Search the transcript for a special-soundness pair.

    Entries are filtered to sigma-valid ones prefixed by the proof's
    commitment vector, grouped by repetition index, and the pair that is
    lexicographically first in the canonical input encoding wins. A pair
    with equal challenges but distinct responses is surfaced as a
    unique-response violation instead of being skipped. If the prefixed
    scan finds nothing, a global scan over all recorded commitment vectors
    is tried. The caller must have verified the proof already.
    """
    valid = [e for e in transcript.entries
             if protocol.verify(instance, e.inp.a_vec[e.inp.i - 1], e.inp.c, e.inp.z)]
    # The prefix encoding is prefix-free, so (prefix, tail) sorts as the
    # concatenated key does.
    valid.sort(key=lambda e: (e.prefix, e.tail))
    prefixed = [e for e in valid if e.inp.a_vec == proof.a_vec]
    outcome = _scan(protocol, instance, prefixed)
    if outcome.status is not Status.NO_PAIR_FOUND:
        return outcome
    fallback = [e for e in valid if e.inp.a_vec != proof.a_vec]
    by_avec: dict = {}
    for e in fallback:
        by_avec.setdefault(e.inp.a_vec, []).append(e)
    for group in by_avec.values():
        outcome = _scan(protocol, instance, group)
        if outcome.status is not Status.NO_PAIR_FOUND:
            return outcome
    return ExtractionOutcome(Status.NO_PAIR_FOUND)


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
