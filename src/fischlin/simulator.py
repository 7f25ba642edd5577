"""Zero-knowledge simulation by oracle reprogramming.

The simulator never sees the witness. It samples a private random function
tilde over [k] x [0, N) (evaluated lazily through a second seeded hash,
256 // l cells per SHA-256 block), takes each proof challenge by the
honest prover's rule, the first c in 0, 1, ..., T - 1 whose tilde cell is
zero, builds the per-repetition
transcripts with the sigma simulator, and answers any sigma-valid oracle
query prefixed by its commitment vector with the corresponding tilde cell,
leaving all other queries untouched. So a simulated challenge has the
prover's law, the truncated geometric law of the first zero hash, and the
simulator aborts exactly when the prover would: on a row whose first T
cells hold no zero. Programming only ever touches fresh points; a point
that was already queried raises ReprogramConflict.

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
from .oracle import OracleInput

__all__ = [
    "TildeFunction",
    "SimOutput",
    "HybridSample",
    "simulate",
    "hybrid_experiment",
    "first_zero_challenge",
    "reprogramming_advantage",
]

class TildeFunction:
    """Lazily evaluated random map (i, c) -> l-bit value, read in blocks.

    Block b of row i is SHA-256("fischlin-tilde" || seed || u32 i || u32 b)
    as a big-endian integer. It holds ``per_block = 256 // l`` cells: cell c
    is the (c mod per_block)-th l-bit field, counted from the low end, of
    block c // per_block, and the bits above per_block * l are unused. So
    the cells are iid uniform l-bit values, and one hash gives per_block of
    them. ``ones`` has a 1 at the bottom of each field and ``highs`` at its
    top, for ``first_zero_challenge``'s zero-field test."""

    def __init__(self, seed: bytes, l: int):
        self.seed = seed
        self.l = l
        self.per_block = 256 // l
        self.mask = (1 << l) - 1
        self.ones = ((1 << self.per_block * l) - 1) // self.mask
        self.highs = self.ones << (l - 1)
        self._mid = hashlib.sha256(b"fischlin-tilde" + seed)

    def block(self, i: int, b: int) -> int:
        """Block b of row i, the only place the cells are hashed."""
        h = self._mid.copy()
        h.update(struct.pack(">II", i, b))
        return int.from_bytes(h.digest(), "big")

    def __call__(self, i: int, c: int) -> int:
        b, j = divmod(c, self.per_block)
        return self.block(i, b) >> (j * self.l) & self.mask


def first_zero_challenge(tilde: TildeFunction, i: int, attempts: int) -> int:
    """The first c < attempts with ``tilde(i, c) == 0``, or Abort: the
    prover's grinding rule, run on row i of the tilde function.

    The row is hashed one block x at a time. The lowest set bit of
    ``t = (x - ones) & ~x & highs`` is the top bit of x's lowest zero
    field, since a field passes a borrow up only when it is zero; fields
    above that one may be flagged falsely, so only that bit is read. A
    zero past ``attempts`` in the last block aborts, as the prover's
    search would."""
    per, l, ones, highs = tilde.per_block, tilde.l, tilde.ones, tilde.highs
    for b in range(-(-attempts // per)):
        x = tilde.block(i, b)
        t = (x - ones) & ~x & highs
        if t:
            c = b * per + (t & -t).bit_length() // l - 1
            if c < attempts:
                return c
            break
    raise transform.Abort(f"repetition {i}: no zero cell within {attempts} challenges")


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
    k = params.k
    tilde = TildeFunction(rng.getrandbits(256).to_bytes(32, "big"), params.l)
    if mode == "H1":
        c_vec = tuple(rng.randrange(params.N) for _ in range(k))
    else:
        c_vec = tuple(first_zero_challenge(tilde, i, params.T)
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

    Each challenge is the first zero cell of its tilde row within T, as
    the prover grinds. Raises Abort when some row has no zero cell among
    its first T, which happens with probability at most k * (1 - 2^-l)^T,
    the prover's own abort bound. Conditioned on not aborting, the output
    proof verifies under the programmed oracle.
    """
    proof, tilde = _run(params, protocol, instance, oracle, rng,
                        witness=None, mode="H2")
    return SimOutput(proof, oracle.table, tilde)


def hybrid_experiment(params, protocol, instance, witness, mode, oracle, rng) -> HybridSample:
    """One sample of the hybrid chain between prover and simulator.

    H0: honest prover against the unmodified oracle. H1: honest
    commitments and responses, challenges uniform over [0, N), sigma-valid
    queries with the proof's prefix reprogrammed to a fresh random
    function. H1': as H1 with each challenge the first zero cell of that
    function's row within T, the prover's rule, so H0 and H1' give
    challenges of the same law. H2: as H1' with simulated responses; this
    is exactly the simulator's code path.
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
