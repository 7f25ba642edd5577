"""Random-oracle facade with query recording and point reprogramming.

Queries are structured tuples (a_vec, i, c, z) rather than raw bytes: the
facade serializes them through a canonical injective encoding, hashes with
seeded SHA-256 truncated to l bits, and logs every distinct query in order.
The ordered log is the classical analogue of a recorded oracle database and
is what the straight-line extractor inspects. A reprogram table lets a
simulator override fresh points; overriding a point that was already
queried is a conflict, never a silent overwrite.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

__all__ = [
    "OracleInput",
    "TranscriptEntry",
    "OracleTranscript",
    "ReprogramTable",
    "RecordingOracle",
    "ReprogramConflict",
    "encode_input",
    "decode_input",
    "ro_eval",
    "derive_seed",
]

_TAG = b"FIS1"


class ReprogramConflict(Exception):
    """Attempt to program a point that is already fixed."""


@dataclass(frozen=True)
class OracleInput:
    """One structured oracle query: commitment vector, repetition index
    (1-based), challenge, and response."""

    a_vec: tuple
    i: int
    c: int
    z: object


@dataclass(frozen=True)
class TranscriptEntry:
    key: bytes
    inp: OracleInput
    y: int


def _encode_prefix(params, protocol, a_vec) -> bytes:
    """Tag, u32 k, u32 l, then the k length-prefixed commitment encodings."""
    if len(a_vec) != params.k:
        raise ValueError("commitment vector length != k")
    out = bytearray(_TAG)
    out += struct.pack(">II", params.k, params.l)
    for a in a_vec:
        enc = protocol.encode_commitment(a)
        out += len(enc).to_bytes(2, "big") + enc
    return bytes(out)


def _encode_tail(params, protocol, i: int, c: int, z) -> bytes:
    """u32 i, u32 c, length-prefixed response encoding."""
    if not 1 <= i <= params.k:
        raise ValueError("repetition index out of range")
    if not 0 <= c < params.N:
        raise ValueError("challenge out of range")
    enc = protocol.encode_response(z)
    return struct.pack(">II", i, c) + len(enc).to_bytes(2, "big") + enc


def encode_input(params, protocol, inp: OracleInput) -> bytes:
    """Canonical bytes: the commitment-vector prefix, then u32 i, u32 c and
    the length-prefixed response encoding.

    Injective on well-formed inputs; also the total order used by the
    extractor's lexicographic tie-break.
    """
    return _encode_prefix(params, protocol, inp.a_vec) + \
        _encode_tail(params, protocol, inp.i, inp.c, inp.z)


def decode_input(params, protocol, data: bytes) -> OracleInput:
    if data[:4] != _TAG:
        raise ValueError("bad tag")
    off = 4
    k, l = struct.unpack_from(">II", data, off)
    off += 8
    if (k, l) != (params.k, params.l):
        raise ValueError("parameter mismatch")
    a_vec = []
    for _ in range(k):
        n = int.from_bytes(data[off:off + 2], "big")
        off += 2
        a_vec.append(protocol.decode_commitment(data[off:off + n]))
        off += n
    i, c = struct.unpack_from(">II", data, off)
    off += 8
    n = int.from_bytes(data[off:off + 2], "big")
    off += 2
    z = protocol.decode_response(data[off:off + n])
    if off + n != len(data):
        raise ValueError("trailing bytes")
    return OracleInput(tuple(a_vec), i, c, z)


def ro_eval(seed: bytes, payload: bytes, out_bits: int) -> int:
    """First ``out_bits`` bits (big-endian bit order) of SHA-256(seed || payload)."""
    if not 1 <= out_bits <= 64:
        raise ValueError("output width must be in [1, 64]")
    digest = hashlib.sha256(seed + payload).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - out_bits)


def derive_seed(material) -> bytes:
    """32-byte oracle seed from an int, str or bytes value."""
    if isinstance(material, bytes):
        data = material
    elif isinstance(material, int):
        data = material.to_bytes(16, "big", signed=True)
    else:
        data = str(material).encode()
    return hashlib.sha256(b"fischlin-oracle-seed" + data).digest()


@dataclass
class OracleTranscript:
    """Ordered log of distinct queries; repeats return the first answer."""

    entries: list = field(default_factory=list)
    index: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def record(self, key: bytes, inp: OracleInput, y: int):
        self.entries.append(TranscriptEntry(key, inp, y))
        self.index[key] = y

    def to_jsonl(self, protocol) -> str:
        return "".join(json.dumps({
            "a": [protocol.encode_commitment(a).hex() for a in e.inp.a_vec],
            "i": e.inp.i,
            "c": e.inp.c,
            "z": protocol.encode_response(e.inp.z).hex(),
            "y": e.y,
        }) + "\n" for e in self.entries)

    @classmethod
    def from_jsonl(cls, params, protocol, text: str) -> "OracleTranscript":
        """Inverse of ``to_jsonl``; raises ValueError naming a malformed line."""
        ts = cls()
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                i, c, y = rec["i"], rec["c"], rec["y"]
                if not all(type(v) is int for v in (i, c, y)) or not 0 <= y < 1 << params.l:
                    raise ValueError("i, c and y must be integers, y in [0, 2^l)")
                inp = OracleInput(
                    tuple(protocol.decode_commitment(bytes.fromhex(h)) for h in rec["a"]),
                    i, c, protocol.decode_response(bytes.fromhex(rec["z"])))
                key = encode_input(params, protocol, inp)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"transcript line {n}: {exc!r}") from None
            ts.record(key, inp, y)
        return ts


@dataclass
class ReprogramTable:
    """Point overrides, consulted before the base hash."""

    overrides: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.overrides)

    def to_json(self) -> list:
        return [{"key": k.hex(), "y": y} for k, y in self.overrides.items()]

    @classmethod
    def from_json(cls, params, records) -> "ReprogramTable":
        """Inverse of ``to_json``; raises ValueError naming a malformed record."""
        if not isinstance(records, list):
            raise ValueError("reprogram table must be a JSON list")
        table = cls()
        for n, rec in enumerate(records):
            try:
                key, y = bytes.fromhex(rec["key"]), rec["y"]
                if type(y) is not int or not 0 <= y < 1 << params.l:
                    raise ValueError("y must be an integer in [0, 2^l)")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"table record {n}: {exc!r}") from None
            table.overrides[key] = y
        return table


class RecordingOracle:
    """Seeded l-bit oracle that logs every distinct structured query.

    Lookup order: transcript (first answer wins), reprogram table, the
    optional ``programmer`` hook (a callable input -> value or None used by
    the zero-knowledge simulator; a produced value is installed in the
    table), then the base truncated hash. The transcript is single-writer;
    one experiment per handle.
    """

    def __init__(self, params, protocol, seed: bytes,
                 transcript: OracleTranscript | None = None,
                 table: ReprogramTable | None = None):
        if len(seed) != 32:
            raise ValueError("oracle seed must be exactly 32 bytes")
        if params.N > protocol.challenge_space:
            raise ValueError("params need a larger sigma challenge space")
        self.params = params
        self.protocol = protocol
        self.seed = seed
        self.transcript = transcript if transcript is not None else OracleTranscript()
        self.table = table if table is not None else ReprogramTable()
        self.programmer = None
        self._avec_cache: dict[tuple, bytes] = {}

    def encode(self, inp: OracleInput) -> bytes:
        """``encode_input`` with the commitment-vector prefix cached."""
        prefix = self._avec_cache.get(inp.a_vec)
        if prefix is None:
            prefix = _encode_prefix(self.params, self.protocol, inp.a_vec)
            self._avec_cache[inp.a_vec] = prefix
        return prefix + _encode_tail(self.params, self.protocol, inp.i, inp.c, inp.z)

    def query(self, inp: OracleInput) -> int:
        key = self.encode(inp)
        prev = self.transcript.index.get(key)
        if prev is not None:
            return prev
        y = self.table.overrides.get(key)
        if y is None and self.programmer is not None:
            y = self.programmer(inp)
            if y is not None:
                self.table.overrides[key] = y
        if y is None:
            y = ro_eval(self.seed, key, self.params.l)
        self.transcript.record(key, inp, y)
        return y

    def reprogram(self, inp: OracleInput, value: int):
        """Install an override; fails if the point is already fixed."""
        if not 0 <= value < 1 << self.params.l:
            raise ValueError("programmed value out of range")
        key = self.encode(inp)
        if key in self.transcript.index:
            raise ReprogramConflict("point already queried")
        old = self.table.overrides.get(key)
        if old is not None and old != value:
            raise ReprogramConflict("point already programmed differently")
        self.table.overrides[key] = value
