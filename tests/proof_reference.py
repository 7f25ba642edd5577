"""The proof reader as it was before ``deserialize_proof`` read the blob in
one pass, kept for the tests to compare with: a bounded ``Reader`` over the
header and the fields, with a ``RepeatedSigma`` element decoded part by
part through its base protocol. ``Reader`` is the library's earlier field
reader, kept here on its own so that the reference shares no code with the
library's packed-field reader ``sigma._fields``, which the tests also
compare with it."""

import struct

from fischlin.sigma import RepeatedSigma
from fischlin.transform import Proof


class Reader:
    """Bounded reader of u32s and ``pack_field`` fields: ValueError past the end."""

    def __init__(self, data: bytes, off: int = 0):
        self.data, self.off = data, off

    def take(self, count: int) -> bytes:
        start, self.off = self.off, self.off + count
        if self.off > len(self.data):
            raise ValueError("truncated")
        return self.data[start:self.off]

    def field(self) -> bytes:
        return self.take(int.from_bytes(self.take(2), "big"))

    def u32s(self, count: int) -> tuple:
        return struct.unpack(f">{count}I", self.take(4 * count))

    def end(self):
        if self.off != len(self.data):
            raise ValueError("trailing bytes")


def fields(data: bytes, count: int) -> list[bytes]:
    """Exactly ``count`` packed fields filling ``data``."""
    reader = Reader(data)
    parts = [reader.field() for _ in range(count)]
    reader.end()
    return parts


def decoders(protocol):
    """(decode commitment, decode response) as the protocol did them."""
    if isinstance(protocol, RepeatedSigma):
        base, copies = protocol.base, protocol.copies
        return (lambda data: tuple(base.decode_commitment(p) for p in fields(data, copies)),
                lambda data: tuple(base.decode_response(p) for p in fields(data, copies)))
    return protocol.decode_commitment, protocol.decode_response


def deserialize_proof(params, protocol, data: bytes) -> Proof:
    if data[:4] != b"FISP":
        raise ValueError("bad magic")
    reader = Reader(data, 4)
    if reader.u32s(3) != (params.k, params.l, params.N):
        raise ValueError("parameter mismatch")
    decode_a, decode_z = decoders(protocol)
    a_vec, c_vec, z_vec = [], [], []
    for _ in range(params.k):
        a_vec.append(decode_a(reader.field()))
        c, = reader.u32s(1)
        if c >= params.N:
            raise ValueError("challenge out of range")
        c_vec.append(c)
        z_vec.append(decode_z(reader.field()))
    reader.end()
    return Proof(tuple(a_vec), tuple(c_vec), tuple(z_vec))


def proof_from_json(params, protocol, obj: dict) -> Proof:
    """Inverse of ``transform.proof_to_json``."""
    if (obj["k"], obj["l"], obj["N"]) != (params.k, params.l, params.N):
        raise ValueError("parameter mismatch")
    return Proof(
        tuple(protocol.decode_commitment(bytes.fromhex(h)) for h in obj["a"]),
        tuple(int(c) for c in obj["c"]),
        tuple(protocol.decode_response(bytes.fromhex(h)) for h in obj["z"]))
