"""Decoded views of oracle queries for the tests.

``decode_input`` inverts ``encode_input``. ``entries`` rebuilds the
record-order list of recorded queries from an ``OracleTranscript``, which
keeps each query once, in its vector's ``answers``, and the record order
across vectors as a list of vector numbers; the tests compare whole
recorded queries, so it decodes each one with ``TranscriptVector.input``."""

from typing import NamedTuple

from fischlin.oracle import OracleInput
from fischlin.sigma import FieldReader


def decode_input(params, protocol, data: bytes) -> OracleInput:
    """Inverse of ``encode_input``; raises ValueError on a malformed or
    truncated key."""
    if data[:4] != b"FIS1":
        raise ValueError("bad tag")
    reader = FieldReader(data, "key", 4)
    if reader.u32s(2) != (params.k, params.l):
        raise ValueError("parameter mismatch")
    a_vec = tuple(protocol.decode_commitment(reader.field()) for _ in range(params.k))
    i, c = reader.u32s(2)
    z = protocol.decode_response(reader.field())
    reader.end()
    return OracleInput(a_vec, i, c, z)


class Entry(NamedTuple):
    """A recorded query: its encoding as the shared commitment-vector
    prefix and its own tail, the structured input and the answer."""

    prefix: bytes
    tail: bytes
    inp: OracleInput
    y: int

    @property
    def key(self) -> bytes:
        """The canonical encoding ``encode_input(inp)``."""
        return self.prefix + self.tail


def entries(transcript) -> list[Entry]:
    """Every recorded query of ``transcript``, decoded, in record order."""
    vectors = transcript.vectors
    points = [iter(vec.answers.items()) for vec in vectors]
    return [Entry(vectors[vid].prefix, tail, vectors[vid].input(tail), y)
            for vid in transcript.vids for tail, y in (next(points[vid]),)]
