"""The proof reader as it was before ``deserialize_proof`` read the blob in
one pass, kept for the tests to compare with: a ``FieldReader`` over the
fields and a ``struct`` format per challenge, with a ``RepeatedSigma``
element decoded part by part through its base protocol."""

from fischlin.sigma import FieldReader, RepeatedSigma, _unpack
from fischlin.transform import Proof, peek_params


def decoders(protocol):
    """(decode commitment, decode response) as the protocol did them."""
    if isinstance(protocol, RepeatedSigma):
        base, copies = protocol.base, protocol.copies
        return (lambda data: tuple(base.decode_commitment(p) for p in _unpack(data, copies)),
                lambda data: tuple(base.decode_response(p) for p in _unpack(data, copies)))
    return protocol.decode_commitment, protocol.decode_response


def deserialize_proof(params, protocol, data: bytes) -> Proof:
    if peek_params(data) != (params.k, params.l, params.N):
        raise ValueError("parameter mismatch")
    decode_a, decode_z = decoders(protocol)
    reader = FieldReader(data, "proof", 16)
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
