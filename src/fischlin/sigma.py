"""Sigma protocols over a prime-order subgroup.

Provides the three-move Schnorr identification protocol (commitment,
challenge, response) for the discrete-log relation x = g^w in the order-q
subgroup of Z_p^*, together with a parallel-repetition wrapper that
restricts the challenge space to an exactly-sized set [0, N).

Both protocol classes expose the same surface (commit / respond / verify /
extract / simulate plus byte codecs for commitments and responses), so the
proof-of-work compiler in :mod:`fischlin.transform` never depends on the
concrete instantiation. ``response_fields`` is the grinding prover's walk:
for c = 0, 1, ... it yields ``pack_field(encode_response(respond(c)))``,
the bytes an oracle query hashes after i and c, without building z.
``_fields`` reads every list of ``pack_field`` fields (u16 length, then
the bytes) but the proof's; ``_unpack`` is its exact-length form.
``response_hex`` is a regex source for the lowercase hex of the canonical
response encodings whose parts are at most an element wide: bytes whose
hex it matches are their own ``canonical_response``, so a reader that
matches it skips that call.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GroupParams",
    "SigmaInstance",
    "SigmaWitness",
    "CommitState",
    "Schnorr",
    "RepeatedSigma",
    "keygen",
    "restrict_and_repeat",
    "protocol_for_challenge_space",
    "encode_int",
    "decode_int",
    "config_int",
]


def config_int(value, name: str) -> int:
    """An integer field of an input file: an int (not a bool) or a decimal
    string. Anything else, a float, a bool, null, a list or an object,
    raises ValueError."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name!r} must be an integer or a decimal string")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def encode_int(v: int) -> bytes:
    """Minimal big-endian byte string (empty for 0)."""
    if v < 0:
        raise ValueError("cannot encode negative integer")
    return v.to_bytes((v.bit_length() + 7) // 8, "big")


def decode_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def pack_field(enc: bytes) -> bytes:
    """A length-prefixed field: u16 big-endian length, then the bytes."""
    if len(enc) > 0xFFFF:
        raise ValueError("element encoding too long")
    return len(enc).to_bytes(2, "big") + enc


@dataclass(frozen=True)
class GroupParams:
    """Prime-order subgroup of Z_p^*: g generates the subgroup of order q."""

    p: int
    q: int
    g: int

    def __post_init__(self):
        if not _is_probable_prime(self.q):
            raise ValueError("q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ValueError("q does not divide p-1")
        if not 1 < self.g < self.p:
            raise ValueError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not have order q")

    def in_subgroup(self, v: int) -> bool:
        return 0 < v < self.p and pow(v, self.q, self.p) == 1

    @classmethod
    def from_config(cls, obj: dict) -> "GroupParams":
        """Config fields p, q, g are read by ``config_int`` (KeyError for a
        missing field)."""
        return cls(*(config_int(obj[name], name) for name in "pqg"))

    def to_config(self) -> dict:
        return {"p": str(self.p), "q": str(self.q), "g": str(self.g)}


@dataclass(frozen=True)
class SigmaInstance:
    """Public statement x, an element of the order-q subgroup."""

    group: GroupParams
    x: int

    def __post_init__(self):
        if not self.group.in_subgroup(self.x):
            raise ValueError("statement not in the prime-order subgroup")


@dataclass(frozen=True)
class SigmaWitness:
    w: int


@dataclass(frozen=True)
class CommitState:
    """Prover state after the first move: a = g^r."""

    r: object
    a: object


def keygen(group: GroupParams, rng) -> tuple[SigmaInstance, SigmaWitness]:
    """Sample w uniformly from [1, q) and publish x = g^w."""
    w = rng.randrange(1, group.q)
    return SigmaInstance(group, pow(group.g, w, group.p)), SigmaWitness(w)


class Schnorr:
    """Schnorr proof of knowledge of w with x = g^w mod p.

    ``challenge_space`` restricts challenges to [0, challenge_space);
    it defaults to q. Challenges are plain integers, no rejection sampling.
    All methods are pure given the supplied rng; instances are safe to
    share across threads.
    """

    def __init__(self, group: GroupParams, challenge_space: int | None = None):
        n = group.q if challenge_space is None else challenge_space
        if not 2 <= n <= group.q:
            raise ValueError("challenge space must satisfy 2 <= N <= q")
        self.group = group
        self.challenge_space = n
        # empty, or encode_int's bytes, no wider than one u16 field holds
        self.response_hex = "(?:%s)?" % (_CANONICAL_HEX % f"0,{min(_width(group.q), 0xFFFF) - 1}")

    def commit(self, instance: SigmaInstance, rng) -> tuple[int, CommitState]:
        """First move: a = g^r for uniform r mod q. Min-entropy log2(q)."""
        g = self.group
        r = rng.randrange(g.q)
        a = pow(g.g, r, g.p)
        return a, CommitState(r, a)

    def respond(self, state: CommitState, witness: SigmaWitness, c: int) -> int:
        """Third move: z = r + c*w mod q."""
        if not 0 <= c < self.challenge_space:
            raise ValueError("challenge out of range")
        return (state.r + c * witness.w) % self.group.q

    def response_fields(self, state: CommitState, witness: SigmaWitness):
        """``pack_field(encode_response(respond(state, witness, c)))`` for
        c = 0, 1, ... N - 1 in turn: the bytes a grinding query hashes
        after i and c. Each z is one step z += w mod q from the last."""
        width = _width(self.group.q)
        if width > 0xFFFF:  # pack_field's check, once for the widest field
            raise ValueError("element encoding too long")
        n, lengths = self.challenge_space, [m.to_bytes(2, "big") for m in range(width + 1)]
        return _walk_fields([lengths], state.r, witness.w, self.group.q, n, n)

    def verify(self, instance: SigmaInstance, a: int, c: int, z: int) -> bool:
        """Accept iff g^z = a * x^c mod p. Malformed values reject."""
        g = self.group
        if not (0 < a < g.p and 0 <= c < self.challenge_space and 0 <= z < g.q):
            return False
        return pow(g.g, z, g.p) == a * pow(instance.x, c, g.p) % g.p

    def extract(self, instance: SigmaInstance, a: int, c: int, z: int,
                c2: int, z2: int) -> SigmaWitness:
        """Special soundness: w = (z - z2) / (c - c2) mod q from two
        accepting transcripts sharing the commitment."""
        if c == c2:
            raise ValueError("challenges must differ")
        if not (self.verify(instance, a, c, z) and self.verify(instance, a, c2, z2)):
            raise ValueError("transcripts do not verify")
        q = self.group.q
        w = (z - z2) * pow(c - c2, -1, q) % q
        if pow(self.group.g, w, self.group.p) != instance.x:
            raise ValueError("extracted value is not a witness")
        return SigmaWitness(w)

    def simulate(self, instance: SigmaInstance, c: int, rng) -> tuple[int, int]:
        """Challenge-first simulator: z uniform mod q, a = g^z * x^{-c}.

        For Schnorr this matches the honest transcript distribution exactly.
        """
        if not 0 <= c < self.challenge_space:
            raise ValueError("challenge out of range")
        g = self.group
        z = rng.randrange(g.q)
        a = pow(g.g, z, g.p) * pow(instance.x, -c % g.q, g.p) % g.p
        return a, z

    # Canonical byte codec: minimal big-endian, length-prefixed by the caller.
    encode_commitment = encode_response = staticmethod(encode_int)
    decode_commitment = decode_response = staticmethod(decode_int)

    def canonical_response(self, data: bytes) -> bytes:
        """``encode_response(decode_response(data))``, without decoding."""
        return data.lstrip(b"\0")
    canonical_commitment = canonical_response  # both codecs are encode_int


def _width(q: int) -> int:
    """Byte width of the widest element below q."""
    return ((q - 1).bit_length() + 7) // 8


# Regex source for the lowercase hex of a nonzero first byte, then of the
# rest of an ``encode_int`` encoding: ``% "0,w"`` for at most w more bytes.
_CANONICAL_HEX = "(?:0[1-9a-f]|[1-9a-f][0-9a-f])(?:[0-9a-f]{2}){%s}"


def _walk_fields(tables, r: int, w: int, q: int, run: int, n: int):
    """n fields in runs of ``run``: each run walks z = r, r + w, ... mod q
    and writes each z after its own table's prefix for z's byte width."""
    for table in tables:
        z = r % q
        for _ in range(min(run, n)):
            m = (z.bit_length() + 7) >> 3
            yield table[m] + z.to_bytes(m, "big")
            z = (z + w) % q
        n -= run


def _digits(c: int, base: int, count: int) -> tuple[int, ...]:
    """Base-``base`` digits of c, most significant first."""
    out = []
    for _ in range(count):
        out.append(c % base)
        c //= base
    return tuple(reversed(out))


def _fields(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """The ``count`` packed fields from offset ``start`` of ``data`` and the
    offset past the last; ValueError on a cut list. Each length is read
    from two indexed bytes: this runs per element read from a file."""
    parts, end = [], start
    try:
        for _ in range(count):
            start = end + 2
            end = start + (data[end] << 8 | data[end + 1])
            parts.append(data[start:end])
    except IndexError:  # a cut length
        raise ValueError("truncated element list") from None
    if end > len(data):  # a cut field
        raise ValueError("truncated element list")
    return parts, end


def _unpack(data: bytes, count: int) -> list[bytes]:
    """Exactly ``count`` packed fields filling ``data``; ValueError on a cut
    or longer list."""
    parts, end = _fields(data, count, 0)
    if end != len(data):
        raise ValueError("trailing bytes")
    return parts


class RepeatedSigma:
    """r-fold parallel repetition of a base protocol with the challenge
    space restricted to exactly [0, N), N <= base_space^r.

    A challenge is split into r base-space digits (most significant first);
    commit, respond, verify and extract operate coordinate-wise. Special
    soundness extracts from any coordinate where the digit vectors differ,
    and unique responses are preserved.
    """

    def __init__(self, base: Schnorr, copies: int, challenge_space: int):
        if copies < 1:
            raise ValueError("need at least one copy")
        if challenge_space > base.challenge_space ** copies:
            raise ValueError("challenge space exceeds base_space^copies")
        if challenge_space < 2:
            raise ValueError("challenge space must be at least 2")
        self.base = base
        self.copies = copies
        self.challenge_space = challenge_space
        self.group = base.group
        # each part is 0000 or a u16 length m, then encode_int's m bytes;
        # widest first, and no wider than one field can hold in all
        width = min(_width(self.group.q), 0xFFFF // copies - 2)
        self.response_hex = "(?:%s){%d}" % ("|".join(
            ["%04x" % m + _CANONICAL_HEX % (m - 1) for m in range(width, 0, -1)]
            + ["0000"]), copies)

    def commit(self, instance, rng):
        pairs = [self.base.commit(instance, rng) for _ in range(self.copies)]
        a = tuple(p[0] for p in pairs)
        return a, CommitState(tuple(p[1] for p in pairs), a)

    def respond(self, state, witness, c):
        if not 0 <= c < self.challenge_space:
            raise ValueError("challenge out of range")
        ds = _digits(c, self.base.challenge_space, self.copies)
        return tuple(self.base.respond(st, witness, d)
                     for st, d in zip(state.r, ds))

    def response_fields(self, state, witness):
        """``pack_field(encode_response(respond(state, witness, c)))`` for
        c = 0, 1, ... N - 1 in turn. The digits count up from the last copy,
        so the other copies' elements, the head, change once every
        base-space steps, and the last copy walks as a Schnorr walk does
        between changes."""
        width = _width(self.group.q)
        if self.copies * (2 + width) > 0xFFFF:  # pack_field's check, once
            raise ValueError("element encoding too long")
        return _walk_fields(self._head_prefixes(state, witness, width), state.r[-1].r,
                            witness.w, self.group.q, self.base.challenge_space,
                            self.challenge_space)

    def _head_prefixes(self, state, witness, width):
        """For each head in turn, the bytes before the last copy's element
        per byte width m of that element: the outer length, the head's
        fields and m as the element's own length."""
        q, w, space = self.group.q, witness.w, self.base.challenge_space
        for h in range(-(-self.challenge_space // space)):
            head = b"".join([pack_field(encode_int((st.r + d * w) % q)) for st, d in
                             zip(state.r, _digits(h, space, self.copies - 1))])
            yield [(len(head) + 2 + m).to_bytes(2, "big") + head + m.to_bytes(2, "big")
                   for m in range(width + 1)]

    def verify(self, instance, a, c, z):
        if not 0 <= c < self.challenge_space:
            return False
        if not (isinstance(a, tuple) and isinstance(z, tuple)):
            return False
        if len(a) != self.copies or len(z) != self.copies:
            return False
        ds = _digits(c, self.base.challenge_space, self.copies)
        return all(self.base.verify(instance, ai, d, zi)
                   for ai, d, zi in zip(a, ds, z))

    def extract(self, instance, a, c, z, c2, z2):
        if c == c2:
            raise ValueError("challenges must differ")
        if not (self.verify(instance, a, c, z) and self.verify(instance, a, c2, z2)):
            raise ValueError("transcripts do not verify")
        d1 = _digits(c, self.base.challenge_space, self.copies)
        d2 = _digits(c2, self.base.challenge_space, self.copies)
        for j, (u, v) in enumerate(zip(d1, d2)):
            if u != v:
                return self.base.extract(instance, a[j], u, z[j], v, z2[j])
        raise AssertionError("unreachable: equal digit vectors imply c == c2")

    def simulate(self, instance, c, rng):
        if not 0 <= c < self.challenge_space:
            raise ValueError("challenge out of range")
        ds = _digits(c, self.base.challenge_space, self.copies)
        pairs = [self.base.simulate(instance, d, rng) for d in ds]
        return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)

    # The base is Schnorr, whose commitments and responses share the
    # encode_int codec, so one packing serves both.
    def encode_response(self, z) -> bytes:
        return b"".join([pack_field(encode_int(zi)) for zi in z])
    encode_commitment = encode_response

    def decode_response(self, data: bytes):
        return tuple([int.from_bytes(p, "big") for p in _unpack(data, self.copies)])
    decode_commitment = decode_response

    def canonical_response(self, data: bytes) -> bytes:
        """``encode_response(decode_response(data))``, without decoding: the
        base's ``encode_int`` codec changes a part only if it starts with 00."""
        parts = _unpack(data, self.copies)
        for part in parts:
            if part[:1] == b"\0":
                return b"".join([pack_field(self.base.canonical_response(p)) for p in parts])
        return data
    canonical_commitment = canonical_response  # packs the base's shared codec


def restrict_and_repeat(base: Schnorr, copies: int, challenge_space: int):
    """Derive a protocol with challenge space exactly [0, challenge_space).

    With copies == 1 this is the base protocol with restricted challenges;
    otherwise challenges are split into ``copies`` base-space digits.
    """
    if copies == 1:
        return Schnorr(base.group, challenge_space)
    return RepeatedSigma(base, copies, challenge_space)


def protocol_for_challenge_space(group: GroupParams, n: int):
    """Smallest repetition of Schnorr over ``group`` whose challenge space
    can be restricted to exactly n."""
    base = Schnorr(group)
    copies, cap = 1, base.challenge_space
    while cap < n:
        copies += 1
        cap *= base.challenge_space
    return restrict_and_repeat(base, copies, n)
