"""Random-oracle facade with query recording and point reprogramming.

Queries are structured tuples (a_vec, i, c, z) rather than raw bytes: the
facade serializes them through a canonical injective encoding, hashes with
seeded SHA-256 truncated to l bits, and can log every distinct query in order.
The ordered log is the classical analogue of a recorded oracle database and
is what the straight-line extractor inspects. A reprogram table lets a
simulator override fresh points; overriding a point that was already
queried is a conflict, never a silent overwrite.

The encoding is a commitment-vector prefix (k commitments, shared by every
query of one proof) followed by a short tail (i, c, z). The oracle encodes
each distinct prefix once and keeps the SHA-256 state after absorbing
``seed || prefix``; a query encodes only its tail and hashes it from a copy
of that midstate. The reprogram table is keyed by ``(prefix, tail)`` as
well, so no query builds the full key ``prefix || tail``, and its JSON
writes each commitment vector once, followed by its programmed points.

A ``HashingOracle`` keeps nothing per query; a ``RecordingOracle`` adds the
transcript, the ``programmer`` hook and ``reprogram``. Either grinds a
repetition in one ``grind`` loop over the protocol's ``response_fields``
walk: it looks the midstate up once, hashes ``u32 i || u32 c || field``
per attempt and returns the winning challenge, with no ``OracleInput``
and no decoded response per attempt unless a programmer is asked. All
other callers use ``query``.

Each commitment vector of the transcript is kept once, with its prefix
bytes and ``answers``, a ``tail -> y`` dict in record order that holds each
of its recorded queries once and answers repeats. A list of vector numbers
gives the record order across vectors. Recording a query therefore adds
only bytes and ints, none of which the cyclic garbage collector tracks, and
costs the same time and memory whatever k is. ``TranscriptVector.input``
decodes a recorded tail back into its structured query.

The transcript's JSONL is grouped like the table: a vector line
``{"a": [hex, ...]}`` each time the record order moves to another vector,
then that vector's point lines ``{"i", "c", "z", "y"}``. The reader also
takes the earlier line format, whose every line holds ``a`` and a point,
by one rule: ``a`` picks the vector and any other key makes a point line.
A point line in the writer's own text shape is read with one pattern match;
every other line goes through ``json.loads``.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass, field
from itertools import groupby

from .sigma import FieldReader, _unpack, pack_field

__all__ = [
    "OracleInput",
    "TranscriptVector",
    "OracleTranscript",
    "ReprogramTable",
    "HashingOracle",
    "RecordingOracle",
    "ReprogramConflict",
    "encode_input",
    "ro_eval",
    "derive_seed",
]

_TAG = b"FIS1"
_U32_PAIR = struct.Struct(">II").pack  # k, l after the tag; i, c opening a tail


class ReprogramConflict(ValueError):
    """Attempt to program a point that is already fixed."""


@dataclass(frozen=True, slots=True)
class OracleInput:
    """One structured oracle query: commitment vector, repetition index
    (1-based), challenge, and response."""

    a_vec: tuple
    i: int
    c: int
    z: object


def _encode_prefix(params, protocol, a_vec, encode=None) -> bytes:
    """Tag, u32 k, u32 l, then the k length-prefixed commitment encodings,
    each made by ``encode`` (``protocol.encode_commitment`` by default)."""
    if len(a_vec) != params.k:
        raise ValueError("commitment vector length != k")
    encode = encode or protocol.encode_commitment
    out = bytearray(_prefix_head(params))
    for a in a_vec:
        out += pack_field(encode(a))
    return bytes(out)


def _prefix_head(params) -> bytes:
    """Tag, u32 k, u32 l: the bytes before a prefix's commitment fields."""
    return _TAG + _U32_PAIR(params.k, params.l)


def _encode_tail(params, i: int, c: int, response: bytes) -> bytes:
    """u32 i, u32 c, then the length-prefixed response encoding."""
    if not 1 <= i <= params.k:
        raise ValueError("repetition index out of range")
    if not 0 <= c < params.N:
        raise ValueError("challenge out of range")
    return _U32_PAIR(i, c) + pack_field(response)


def encode_input(params, protocol, inp: OracleInput) -> bytes:
    """Canonical bytes: the commitment-vector prefix, then u32 i, u32 c and
    the length-prefixed response encoding.

    Injective on well-formed inputs; also the total order used by the
    extractor's lexicographic tie-break.
    """
    return _encode_prefix(params, protocol, inp.a_vec) + \
        _encode_tail(params, inp.i, inp.c, protocol.encode_response(inp.z))


def _truncate(digest: bytes, out_bits: int) -> int:
    """First ``out_bits`` bits (big-endian bit order) of a digest."""
    return int.from_bytes(digest[:8], "big") >> (64 - out_bits)


def zero_bound(bits: int) -> bytes:
    """2^(256 - bits) as 32 big-endian bytes: a SHA-256 digest is below it
    exactly when its first ``bits`` bits are zero."""
    return (1 << (256 - bits)).to_bytes(32, "big")


def ro_eval(seed: bytes, payload: bytes, out_bits: int) -> int:
    """First ``out_bits`` bits (big-endian bit order) of SHA-256(seed || payload)."""
    if not 1 <= out_bits <= 64:
        raise ValueError("output width must be in [1, 64]")
    return _truncate(hashlib.sha256(seed + payload).digest(), out_bits)


def derive_seed(material) -> bytes:
    """32-byte oracle seed from an int, str or bytes value."""
    if isinstance(material, bytes):
        data = material
    elif isinstance(material, int):
        data = material.to_bytes(16, "big", signed=True)
    else:
        data = str(material).encode()
    return hashlib.sha256(b"fischlin-oracle-seed" + data).digest()


class TranscriptVector:
    """One commitment vector of a transcript: its number in first-use
    order, its prefix encoding, the vector, the protocol that encodes its
    responses, and ``answers``, the ``tail -> y`` lookup of its recorded
    queries."""

    __slots__ = ("vid", "prefix", "a_vec", "protocol", "answers")

    def __init__(self, vid: int, prefix: bytes, a_vec: tuple, protocol):
        self.vid, self.prefix, self.a_vec, self.protocol = vid, prefix, a_vec, protocol
        self.answers: dict[bytes, int] = {}

    def input(self, tail: bytes) -> OracleInput:
        """The structured query a well-formed tail of this vector encodes."""
        i, c = struct.unpack_from(">II", tail)
        return OracleInput(self.a_vec, i, c, self.protocol.decode_response(tail[10:]))


class OracleTranscript:
    """Ordered log of distinct queries; repeats return the first answer.

    ``vectors`` lists every commitment vector in first-use order, each
    holding its own queries in ``answers``; ``vids`` holds each recorded
    query's vector number in record order."""

    def __init__(self):
        self.vectors: list[TranscriptVector] = []
        self._by_prefix: dict[bytes, TranscriptVector] = {}
        self.vids: list[int] = []

    def __len__(self):
        return len(self.vids)

    def vector(self, prefix: bytes, a_vec: tuple, protocol) -> TranscriptVector:
        """The vector whose encoding is ``prefix``, added if new."""
        vec = self._by_prefix.get(prefix)
        if vec is None:
            vec = self._by_prefix[prefix] = TranscriptVector(
                len(self.vectors), prefix, a_vec, protocol)
            self.vectors.append(vec)
        return vec

    def record(self, vec: TranscriptVector, tail: bytes, y: int):
        """Log a query that ``vec`` has not recorded yet."""
        vec.answers[tail] = y
        self.vids.append(vec.vid)

    def to_jsonl(self, protocol) -> str:
        """Grouped JSONL: a vector line ``{"a": [hex, ...]}`` each time the
        record order moves to another commitment vector, then one point line
        ``{"i", "c", "z", "y"}`` per query of that vector, in record order;
        ``z`` is the tail's canonical response field. Each line is the text
        of ``json.dumps`` of its object."""
        heads = [json.dumps({"a": [protocol.encode_commitment(a).hex() for a in vec.a_vec]})
                 + "\n" for vec in self.vectors]
        points = [iter(vec.answers.items()) for vec in self.vectors]
        unpack = struct.unpack_from
        out = []
        for vid, run in groupby(self.vids):
            out.append(heads[vid])
            out += [f'{{"i": {i}, "c": {c}, "z": "{tail[10:].hex()}", "y": {y}}}\n'
                    for _, (tail, y) in zip(run, points[vid])
                    for i, c in (unpack(">II", tail),)]
        return "".join(out)

    @classmethod
    def from_jsonl(cls, params, protocol, text: str) -> "OracleTranscript":
        """Inverse of ``to_jsonl``, which also reads the earlier line format
        (``a`` and a point on every line); raises ValueError naming a
        malformed line. A line's ``a`` picks the current vector, and a line
        with any other key is a point of the current vector; a point before
        any vector is malformed. Each distinct commitment vector is decoded
        and encoded once; a response is re-encoded canonically into its
        tail. A point that repeats a recorded query is dropped if it has the
        same ``y`` and malformed if it has another.

        A point line in the writer's text shape whose values are in range is
        read by ``_POINT_LINE`` without ``json.loads``; it gives the same
        tail and ``y`` as the JSON path, which reads every other line and
        names any error."""
        ts = cls()
        vectors: dict[tuple, TranscriptVector] = {}  # hex strings -> vector
        vec = None
        match, canonical = _POINT_LINE.fullmatch, protocol.canonical_response
        k, n_max, y_max = params.k, params.N, 1 << params.l
        for n, line in enumerate(text.splitlines(), 1):
            try:
                m = vec is not None and match(line)
                if m:
                    i, c, z, y = m.groups()
                    i, c, y = int(i), int(c), int(y)
                if m and 1 <= i <= k and c < n_max and y < y_max:
                    tail = _U32_PAIR(i, c) + pack_field(canonical(bytes.fromhex(z)))
                elif not line.strip():
                    continue
                else:
                    rec = json.loads(line)
                    if "a" in rec:
                        hexes = tuple(rec["a"])
                        vec = vectors.get(hexes)
                        if vec is None:
                            a_vec = tuple(protocol.decode_commitment(bytes.fromhex(h))
                                          for h in hexes)
                            vec = vectors[hexes] = ts.vector(
                                _encode_prefix(params, protocol, a_vec), a_vec, protocol)
                        if len(rec) == 1:
                            continue
                    elif vec is None:
                        raise ValueError("point line before any vector line")
                    tail, y = _read_point(params, protocol, rec)
                old = vec.answers.get(tail)
                if old is None:
                    ts.record(vec, tail, y)
                elif old != y:
                    raise ValueError(f"query answered both {old} and {y}")
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"transcript line {n}: {exc!r}") from None
        return ts


# A point line exactly as ``to_jsonl`` writes it: ints without a leading
# zero and short enough to need no big-int parse, lowercase even-length hex.
_INT = "(0|[1-9][0-9]{0,18})"
_POINT_LINE = re.compile(r'\{"i": %s, "c": %s, "z": "((?:[0-9a-f]{2})*)", "y": %s\}'
                         % (_INT, _INT, _INT))


def _read_point(params, protocol, rec) -> tuple:
    """(tail, y) of a JSON point record ``{i, c, z, y}``, the record shape
    of the transcript JSONL and the reprogram table. The response is
    re-encoded canonically; a malformed record raises KeyError, TypeError
    or ValueError."""
    i, c, y = rec["i"], rec["c"], rec["y"]
    if not all(type(v) is int for v in (i, c, y)) or not 0 <= y < 1 << params.l:
        raise ValueError("i, c and y must be integers, y in [0, 2^l)")
    response = protocol.canonical_response(bytes.fromhex(rec["z"]))
    return _encode_tail(params, i, c, response), y


# One programmed point as ``json.dump(..., indent=2)`` writes it in a table.
_POINT_TEXT = ('\n        {\n          "i": %d,\n          "c": %d,\n'
               '          "z": "%s",\n          "y": %d\n        }')


@dataclass
class ReprogramTable:
    """Point overrides, consulted before the base hash; ``overrides`` maps
    ``(prefix, tail)`` to the programmed value."""

    overrides: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.overrides)

    def program(self, key: tuple, y: int):
        """Fix the point ``key`` to ``y``; ReprogramConflict if it is
        already fixed to another value."""
        old = self.overrides.setdefault(key, y)
        if old != y:
            raise ReprogramConflict(f"point programmed to both {old} and {y}")

    def _vectors(self):
        """(commitment hexes, keys) of each commitment vector, in
        first-programmed order, its keys in programmed order."""
        groups: dict[bytes, list] = {}
        for key in self.overrides:
            groups.setdefault(key[0], []).append(key)
        for prefix, keys in groups.items():
            reader = FieldReader(prefix, "prefix", 12)
            yield [reader.field().hex() for _ in range(struct.unpack_from(">I", prefix, 4)[0])], keys

    def _point(self, key: tuple) -> tuple:
        """(i, c, z hex, y) of a programmed point."""
        return (*struct.unpack_from(">II", key[1]), key[1][10:].hex(), self.overrides[key])

    def to_json(self) -> dict:
        """``{"vectors": [{"a": [hex, ...], "points": [{"i", "c", "z", "y"},
        ...]}, ...]}``: each commitment vector once, in first-programmed
        order, with the transcript JSONL's field names."""
        return {"vectors": [
            {"a": hexes, "points": [dict(zip("iczy", self._point(key))) for key in keys]}
            for hexes, keys in self._vectors()]}

    def write_json(self, fh):
        """Write the text of ``json.dump(self.to_json(), fh, indent=2)``,
        one point at a time."""
        fh.write('{\n  "vectors": [')
        for n, (hexes, keys) in enumerate(self._vectors()):
            fh.write(("," if n else "") + '\n    {\n      "a": [\n        "'
                     + '",\n        "'.join(hexes) + '"\n      ],\n      "points": [')
            for m, key in enumerate(keys):
                fh.write(("," if m else "") + _POINT_TEXT % self._point(key))
            fh.write("\n      ]\n    }")
        fh.write("\n  ]\n}" if self.overrides else "]\n}")

    @classmethod
    def from_json(cls, params, protocol, obj) -> "ReprogramTable":
        """Inverse of ``to_json``. A JSON list is read as the earlier format,
        ``{"key": hex, "y": int}`` records whose key is a full query
        encoding. Either format programs each point's canonical encoding:
        canonical commitments in the prefix, an in-range ``i`` and ``c`` and
        the canonical response in the tail. Raises ValueError naming a
        malformed record, or one that programs a point already programmed
        to another value."""
        table = cls()
        if isinstance(obj, list):
            raw = None  # the previous key's raw prefix, which a key starting with it shares
            prefixes: dict[bytes, bytes] = {}  # raw prefix -> canonical prefix
            for n, rec in enumerate(obj):
                try:
                    key, y = bytes.fromhex(rec["key"]), rec["y"]
                    if type(y) is not int or not 0 <= y < 1 << params.l:
                        raise ValueError("y must be an integer in [0, 2^l)")
                    if raw is None or not key.startswith(raw):
                        if key[:12] != _prefix_head(params):
                            raise ValueError("key does not start with the tag, k and l")
                        end = 12  # past the k fields, read by their lengths alone
                        for _ in range(params.k):
                            end += 2 + (key[end] << 8 | key[end + 1])
                        raw = key[:end]
                        prefix = prefixes.get(raw)
                        if prefix is None:  # _unpack rejects a prefix cut short
                            prefix = prefixes[raw] = _encode_prefix(
                                params, protocol, _unpack(raw[12:], params.k),
                                protocol.canonical_commitment)
                    reader = FieldReader(key, "table key", len(raw))
                    i, c = reader.u32s(2)
                    response = reader.field()
                    reader.end()
                    table.program((prefix, _encode_tail(
                        params, i, c, protocol.canonical_response(response))), y)
                except IndexError:  # a cut field length
                    raise ValueError(f"table record {n}: truncated table key") from None
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"table record {n}: {exc!r}") from None
            return table
        vectors = obj.get("vectors") if isinstance(obj, dict) else None
        if not isinstance(vectors, list):
            raise ValueError("reprogram table must be a JSON list or an object "
                             "with a 'vectors' list")
        for v, rec in enumerate(vectors):
            try:
                points = rec["points"]
                if not isinstance(points, list):
                    raise ValueError("'points' must be a list")
                prefix = _encode_prefix(params, protocol, rec["a"], lambda h:
                                        protocol.canonical_commitment(bytes.fromhex(h)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"table vector {v}: {exc!r}") from None
            for n, point in enumerate(points):
                try:
                    tail, y = _read_point(params, protocol, point)
                    table.program((prefix, tail), y)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"table vector {v} point {n}: {exc!r}") from None
        return table


class HashingOracle:
    """Seeded l-bit oracle that keeps nothing per query; its table overrides the hash."""

    def __init__(self, params, protocol, seed: bytes, table: ReprogramTable | None = None):
        if len(seed) != 32:
            raise ValueError("oracle seed must be exactly 32 bytes")
        if params.N > protocol.challenge_space:
            raise ValueError("params need a larger sigma challenge space")
        self.params = params
        self.protocol = protocol
        self.seed = seed
        self.table = table if table is not None else ReprogramTable()
        self.attempts = 0
        # a_vec -> (SHA-256 state after seed || prefix, prefix); the last
        # vector asked for is checked by identity before the dict.
        self._contexts: dict[tuple, tuple] = {}
        self._last = (object(), None)

    def _context(self, a_vec: tuple) -> tuple:
        """(midstate, prefix) of a commitment vector, encoded once."""
        last_vec, ctx = self._last
        if a_vec is not last_vec:
            ctx = self._contexts.get(a_vec)
            if ctx is None:
                prefix = _encode_prefix(self.params, self.protocol, a_vec)
                ctx = self._contexts[a_vec] = (hashlib.sha256(self.seed + prefix), prefix)
            self._last = (a_vec, ctx)
        return ctx

    def _tail(self, inp: OracleInput) -> bytes:
        return _encode_tail(self.params, inp.i, inp.c, self.protocol.encode_response(inp.z))

    def _answer(self, mid, prefix: bytes, tail: bytes) -> int:
        """The table's value of a point, else its truncated hash."""
        y = self.table.overrides.get((prefix, tail))
        if y is None:
            h = mid.copy()
            h.update(tail)
            y = _truncate(h.digest(), self.params.l)
        return y

    def query(self, inp: OracleInput) -> int:
        return self._answer(*self._context(inp.a_vec), self._tail(inp))

    def grind(self, a_vec: tuple, i: int, attempts: int, fields):
        """The first challenge c < attempts whose query ``(a_vec, i, c, z)``
        answers 0, or None; ``fields`` yields each attempt's packed response
        field ``pack_field(encode_response(z))``. Adds the attempts made to
        ``attempts``."""
        if not 1 <= i <= self.params.k:
            raise ValueError("repetition index out of range")
        if attempts > self.params.N:
            raise ValueError("challenge out of range")
        hit = self._grind(a_vec, i, attempts, fields)
        self.attempts += attempts if hit is None else hit + 1
        return hit

    def _grind(self, a_vec: tuple, i: int, attempts: int, fields):
        """Hash each attempt's tail ``u32 i || u32 c || field`` from the
        midstate, or answer it through the table if there is one."""
        mid, prefix = self._context(a_vec)
        if self.table.overrides:
            return next((c for c, field in zip(range(attempts), fields)
                         if self._answer(mid, prefix, _U32_PAIR(i, c) + field) == 0), None)
        zero = zero_bound(self.params.l)
        for c, field in zip(range(attempts), fields):
            h = mid.copy()
            h.update(_U32_PAIR(i, c) + field)
            if h.digest() < zero:
                return c
        return None


class RecordingOracle(HashingOracle):
    """Hashing oracle that logs every distinct structured query.

    Lookup order: transcript (first answer wins), reprogram table, the
    optional ``programmer`` hook (a callable input -> value or None used by
    the zero-knowledge simulator; a produced value is installed in the
    table), then the base truncated hash. The transcript is single-writer;
    one experiment per handle.
    """

    def __init__(self, params, protocol, seed: bytes, table: ReprogramTable | None = None):
        super().__init__(params, protocol, seed, table)
        self.transcript = OracleTranscript()
        self.programmer = None

    def _split(self, inp: OracleInput) -> tuple:
        """(midstate, transcript vector, tail) of a query; only the tail is new."""
        mid, prefix = self._context(inp.a_vec)
        return mid, self.transcript.vector(prefix, inp.a_vec, self.protocol), self._tail(inp)

    def encode(self, inp: OracleInput) -> bytes:
        """``encode_input`` with the commitment-vector prefix cached."""
        _, vec, tail = self._split(inp)
        return vec.prefix + tail

    def query(self, inp: OracleInput) -> int:
        return self._lookup(*self._split(inp), inp)

    def _lookup(self, mid, vec: TranscriptVector, tail: bytes, inp=None) -> int:
        """The transcript's answer to a query, else the programmer's, the
        table's or the hash's, recorded. ``inp`` is the structured query,
        which a grinding attempt leaves out: it is decoded from the tail
        only if the programmer is asked."""
        y = vec.answers.get(tail)
        if y is None:
            if self.programmer is not None and (vec.prefix, tail) not in self.table.overrides:
                y = self.programmer(vec.input(tail) if inp is None else inp)
                if y is not None:
                    self.table.program((vec.prefix, tail), y)
            y = self._answer(mid, vec.prefix, tail)
            self.transcript.record(vec, tail, y)
        return y

    def _grind(self, a_vec: tuple, i: int, attempts: int, fields):
        """Hash and record each attempt, or look it up through the
        transcript, programmer and table if either of the last two may answer."""
        mid, prefix = self._context(a_vec)
        vec = self.transcript.vector(prefix, a_vec, self.protocol)
        if self.table.overrides or self.programmer is not None:
            return next((c for c, field in zip(range(attempts), fields)
                         if self._lookup(mid, vec, _U32_PAIR(i, c) + field) == 0), None)
        answers, vid, l = vec.answers, vec.vid, self.params.l
        vids = self.transcript.vids
        for c, field in zip(range(attempts), fields):
            tail = _U32_PAIR(i, c) + field
            y = answers.get(tail)
            if y is None:
                h = mid.copy()
                h.update(tail)
                answers[tail] = y = _truncate(h.digest(), l)
                vids.append(vid)
            if y == 0:
                return c
        return None

    def reprogram(self, inp: OracleInput, value: int):
        """Install an override; ReprogramConflict if the point was already
        queried or is programmed to another value."""
        if not 0 <= value < 1 << self.params.l:
            raise ValueError("programmed value out of range")
        _, vec, tail = self._split(inp)
        if tail in vec.answers:
            raise ReprogramConflict("point already queried")
        self.table.program((vec.prefix, tail), value)
