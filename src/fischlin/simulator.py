"""Zero-knowledge simulation by oracle reprogramming.

The simulator never sees the witness. It samples a private random function
T over [k] x [0, N) (realized lazily through a second seeded hash), picks
each proof challenge uniformly among the zero cells of its row, builds the
per-repetition transcripts with the sigma simulator, and answers any
sigma-valid oracle query prefixed by its commitment vector with the
corresponding T cell, leaving all other queries untouched. Programming
only ever touches fresh points; a point that was already queried raises
ReprogramConflict.

The hybrid experiments interpolate between the honest prover and the
simulator for distributional comparison, and ``reprogramming_advantage``
evaluates the standard adaptive-reprogramming distinguishing bound
sum_r (sqrt(q * p_r) + q * p_r / 2) for round maxima p_r.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from . import transform
from .oracle import OracleInput, ro_eval, zero_bound

__all__ = [
    "TildeFunction",
    "SimOutput",
    "HybridSample",
    "simulate",
    "hybrid_experiment",
    "sample_zero_challenge",
    "reprogramming_advantage",
]

_REJECTION_FACTOR = 64


class TildeFunction:
    """Lazily materialized random map (i, c) -> l-bit value.

    ``_mid`` is the SHA-256 state after absorbing the hash seed, from which
    the zero-cell sampler hashes its candidates without building inputs."""

    def __init__(self, seed: bytes, l: int):
        self.seed = seed
        self.l = l
        self.cells: dict[tuple[int, int], int] = {}
        self._hash_seed = b"fischlin-tilde" + seed
        self._mid = hashlib.sha256(self._hash_seed)

    def __call__(self, i: int, c: int) -> int:
        v = self.cells.get((i, c))
        if v is None:
            v = ro_eval(self._hash_seed, struct.pack(">II", i, c), self.l)
            self.cells[(i, c)] = v
        return v


def sample_zero_challenge(tilde: TildeFunction, i: int, n: int, rng) -> int:
    """Uniform challenge among the zero cells of row i, or Abort.

    Rejection-samples up to 64 * 2^l uniform candidates, then falls back to
    an exhaustive scan with a uniform choice among the zeros found; both
    stages are exactly uniform over the zero set.

    A candidate is hashed from a copy of the row's SHA-256 state, and it is
    a zero cell, ``tilde(i, c) == 0``, when its digest is below
    ``zero_bound(l)``. Rejected candidates are not cached in ``tilde.cells``.
    """
    randrange = rng.randrange
    row = tilde._mid.copy()
    row.update(struct.pack(">I", i))
    zero_below = zero_bound(tilde.l)
    for _ in range(_REJECTION_FACTOR << tilde.l):
        c = randrange(n)
        h = row.copy()
        h.update(c.to_bytes(4, "big"))
        if h.digest() < zero_below:
            return c
    zeros = [c for c in range(n) if tilde(i, c) == 0]
    if not zeros:
        raise transform.Abort(f"repetition {i}: no zero cell among {n} challenges")
    return zeros[rng.randrange(len(zeros))]


@dataclass(frozen=True)
class SimOutput:
    proof: transform.Proof
    table: object
    tilde: TildeFunction


@dataclass(frozen=True)
class HybridSample:
    proof: transform.Proof
    verdict: bool
    reps: tuple


def _install_programmer(oracle, protocol, instance, a_vec, tilde):
    """Answer sigma-valid fresh queries prefixed by a_vec from tilde."""

    def programmer(inp: OracleInput):
        if inp.a_vec != a_vec:
            return None
        if not protocol.verify(instance, inp.a_vec[inp.i - 1], inp.c, inp.z):
            return None
        return tilde(inp.i, inp.c)

    oracle.programmer = programmer


def _run(params, protocol, instance, oracle, rng, witness, mode):
    """Shared core of the simulator and the reprogramming hybrids."""
    k, n = params.k, params.N
    tilde = TildeFunction(rng.getrandbits(256).to_bytes(32, "big"), params.l)
    if mode == "H1":
        c_vec = tuple(rng.randrange(n) for _ in range(k))
    else:
        c_vec = tuple(sample_zero_challenge(tilde, i, n, rng)
                      for i in range(1, k + 1))
    if mode == "H2":
        pairs = [protocol.simulate(instance, c, rng) for c in c_vec]
        a_vec = tuple(p[0] for p in pairs)
        z_vec = tuple(p[1] for p in pairs)
    else:
        commits = [protocol.commit(instance, rng) for _ in range(k)]
        a_vec = tuple(cm[0] for cm in commits)
        z_vec = tuple(protocol.respond(commits[i][1], witness, c_vec[i])
                      for i in range(k))
    _install_programmer(oracle, protocol, instance, a_vec, tilde)
    for i in range(1, k + 1):
        oracle.reprogram(OracleInput(a_vec, i, c_vec[i - 1], z_vec[i - 1]),
                         tilde(i, c_vec[i - 1]))
    return transform.Proof(a_vec, c_vec, z_vec), tilde


def simulate(params, protocol, instance, oracle, rng) -> SimOutput:
    """Produce a proof for a statement in the language without the witness.

    Raises Abort when some tilde row has no zero cell, which happens with
    probability at most k * (1 - 2^-l)^N. Conditioned on not aborting, the
    output proof verifies under the programmed oracle.
    """
    proof, tilde = _run(params, protocol, instance, oracle, rng,
                        witness=None, mode="H2")
    return SimOutput(proof, oracle.table, tilde)


def hybrid_experiment(params, protocol, instance, witness, mode, oracle, rng) -> HybridSample:
    """One sample of the hybrid chain between prover and simulator.

    H0: honest prover against the unmodified oracle. H1: honest
    commitments and responses, challenges uniform over [0, N), sigma-valid
    queries with the proof's prefix reprogrammed to a fresh random
    function. H1': as H1 with challenges uniform among that function's
    zero cells. H2: as H1' with simulated responses; this is exactly the
    simulator's code path.
    """
    if mode not in ("H0", "H1", "H1'", "H2"):
        raise ValueError(f"unknown hybrid {mode!r}")
    if mode == "H0":
        proof = transform.prove(params, protocol, instance, witness, oracle, rng)
    else:
        proof, _ = _run(params, protocol, instance, oracle, rng, witness, mode)
    verdict = transform.verify(params, protocol, instance, proof, oracle)
    reps = tuple(zip(proof.a_vec, proof.c_vec, proof.z_vec))
    return HybridSample(proof, verdict, reps)


def reprogramming_advantage(q: int, rounds) -> float:
    """Distinguishing bound sum_r (sqrt(q * p_r) + q * p_r / 2) for a
    q-query adversary against per-round reprogramming maxima ``rounds``."""
    if q < 0:
        raise ValueError("query count must be nonnegative")
    total = 0.0
    for p_max in rounds:
        if p_max < 0:
            raise ValueError("round maxima must be nonnegative")
        total += math.sqrt(q * p_max) + q * p_max / 2.0
    return total
