import gc
import io
import json
import random
import struct
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischlin.oracle import (
    _POINT_LINE,
    OracleInput,
    OracleTranscript,
    RecordingOracle,
    ReprogramConflict,
    ReprogramTable,
    derive_seed,
    _encode_prefix,
    encode_input,
    ro_eval,
    zero_bound,
)
from fischlin.sigma import FieldReader, GroupParams, RepeatedSigma, Schnorr, SigmaInstance, \
    SigmaWitness, pack_field, protocol_for_challenge_space
from fischlin.transform import FischlinParams
from transcript_entries import decode_input, entries

PARAMS = FischlinParams(k=2, l=4, N=16, T=16)
KEY = encode_input(PARAMS, Schnorr(GroupParams(1019, 509, 4), 16),
                   OracleInput((64, 80), 2, 5, 300))


@pytest.fixture
def proto(toy_group):
    return Schnorr(toy_group, 16)


def table_key(params, protocol, inp):
    """The reprogram table's ``(prefix, tail)`` key of a query, split from
    its full encoding."""
    prefix = _encode_prefix(params, protocol, inp.a_vec)
    key = encode_input(params, protocol, inp)
    assert key.startswith(prefix)
    return prefix, key[len(prefix):]


def rand_input(rng, k=2, n=16):
    a_vec = tuple(pow(4, rng.randrange(509), 1019) for _ in range(k))
    return OracleInput(a_vec, rng.randrange(k) + 1, rng.randrange(n),
                       rng.randrange(509))


class TestEncoding:
    def test_index_is_bound(self, proto):
        one = encode_input(PARAMS, proto, OracleInput((64, 80), 1, 3, 17))
        two = encode_input(PARAMS, proto, OracleInput((64, 80), 2, 3, 17))
        assert one != two

    def test_roundtrip_random_inputs(self, proto):
        rng = random.Random(123)
        for _ in range(1000):
            inp = rand_input(rng)
            assert decode_input(PARAMS, proto, encode_input(PARAMS, proto, inp)) == inp

    def test_documented_byte_vector(self, toy_group):
        params = FischlinParams(k=1, l=4, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        data = encode_input(params, proto, OracleInput((1,), 1, 0, 0))
        assert data == bytes.fromhex(
            "46495331"          # tag "FIS1"
            "00000001"          # k = 1
            "00000004"          # l = 4
            "0001" "01"         # commitment 1, length-prefixed
            "00000001"          # i = 1
            "00000000"          # c = 0
            "0000")             # response 0 encodes to the empty string

    def test_injectivity_over_random_pairs(self, proto):
        rng = random.Random(99)
        seen = {}
        for _ in range(2000):
            inp = rand_input(rng)
            key = encode_input(PARAMS, proto, inp)
            assert seen.setdefault(key, inp) == inp

    @pytest.mark.parametrize("cut", range(len(KEY)))
    def test_truncated_key_rejected(self, proto, cut):
        with pytest.raises(ValueError):
            decode_input(PARAMS, proto, KEY[:cut])

    def test_wrong_vector_length(self, proto):
        with pytest.raises(ValueError):
            encode_input(PARAMS, proto, OracleInput((64,), 1, 0, 0))

    def test_index_and_challenge_range(self, proto):
        with pytest.raises(ValueError):
            encode_input(PARAMS, proto, OracleInput((64, 80), 0, 0, 0))
        with pytest.raises(ValueError):
            encode_input(PARAMS, proto, OracleInput((64, 80), 3, 0, 0))
        with pytest.raises(ValueError):
            encode_input(PARAMS, proto, OracleInput((64, 80), 1, 16, 0))


class TestRoEval:
    def test_deterministic(self):
        seed = derive_seed(1)
        assert ro_eval(seed, b"payload", 8) == ro_eval(seed, b"payload", 8)

    def test_width_limits(self):
        with pytest.raises(ValueError):
            ro_eval(derive_seed(1), b"x", 0)
        with pytest.raises(ValueError):
            ro_eval(derive_seed(1), b"x", 65)

    def test_output_in_range(self):
        seed = derive_seed(2)
        for l in (1, 7, 13, 64):
            for i in range(64):
                assert 0 <= ro_eval(seed, bytes([i]), l) < 1 << l

    def test_zero_rate_matches_width(self):
        # at l = 8 the zero rate over 1e5 draws is 2^-8 within 3 sigma
        seed = derive_seed(3)
        n, p = 100_000, 2.0 ** -8
        hits = sum(ro_eval(seed, i.to_bytes(4, "big"), 8) == 0 for i in range(n))
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(hits - n * p) <= 3 * sigma

    def test_single_bit_balanced(self):
        seed = derive_seed(4)
        n = 100_000
        ones = sum(ro_eval(seed, i.to_bytes(4, "big"), 1) for i in range(n))
        assert abs(ones - n / 2) <= 3 * (n * 0.25) ** 0.5


class TestRecordingOracle:
    def make(self, proto, seed=11, **kw):
        return RecordingOracle(PARAMS, proto, derive_seed(seed), **kw)

    def test_repeat_query_logged_once(self, proto):
        oracle = self.make(proto)
        inp = OracleInput((64, 80), 1, 3, 17)
        y1 = oracle.query(inp)
        y2 = oracle.query(inp)
        assert y1 == y2
        assert len(oracle.transcript) == 1

    def test_each_distinct_input_logged_exactly_once(self, proto):
        oracle = self.make(proto)
        rng = random.Random(5)
        inputs = [rand_input(rng) for _ in range(300)]
        for inp in inputs + inputs:
            oracle.query(inp)
        keys = [e.key for e in entries(oracle.transcript)]
        assert len(keys) == len(set(keys)) == len({
            oracle.encode(i) for i in inputs})

    def test_causal_order_preserved(self, proto):
        oracle = self.make(proto)
        prover = [OracleInput((64, 80), 1, c, c) for c in range(3)]
        verifier = [OracleInput((64, 80), 2, c, c) for c in range(3)]
        interleaved = [q for pair in zip(prover, verifier) for q in pair]
        for q in interleaved:
            oracle.query(q)
        assert [e.inp for e in entries(oracle.transcript)] == interleaved

    def test_recording_keeps_no_tracked_object_per_query(self, proto):
        # the transcript holds bytes and ints in lists and dicts, none of
        # which the cyclic collector tracks, so its object count does not
        # grow with the number of recorded queries
        oracle = self.make(proto)
        gc.collect()
        before = len(gc.get_objects())
        for n in range(10_000):
            oracle.query(OracleInput((64, 80), n % 2 + 1, n // 2 % 16, n // 32))
        assert len(oracle.transcript) == 10_000
        assert len(gc.get_objects()) - before <= 16

    def test_entries_decode_interleaved_vectors(self, proto):
        oracle = self.make(proto)
        vecs = [(64, 80), (80, 64)]
        inputs = [OracleInput(vecs[n % 2], n % 2 + 1, n % 16, n) for n in range(40)]
        answers = [oracle.query(inp) for inp in inputs]
        got = entries(oracle.transcript)
        assert len(got) == len(inputs)
        for j, (inp, y) in enumerate(zip(inputs, answers)):
            assert got[j].inp == inp and got[j].y == y
            assert got[j].key == encode_input(PARAMS, proto, inp)
        assert got[-1].inp == inputs[-1]
        with pytest.raises(IndexError):
            got[len(inputs)]

    def test_reprogram_precedence(self, proto):
        oracle = self.make(proto)
        inp = OracleInput((64, 80), 1, 3, 17)
        oracle.reprogram(inp, 9)
        assert oracle.query(inp) == 9

    def test_reprogram_after_query_conflicts(self, proto):
        oracle = self.make(proto)
        inp = OracleInput((64, 80), 1, 3, 17)
        oracle.reprogram(inp, 9)
        assert oracle.query(inp) == 9
        with pytest.raises(ReprogramConflict):
            oracle.reprogram(inp, 5)

    def test_reprogram_same_value_is_idempotent(self, proto):
        oracle = self.make(proto)
        inp = OracleInput((64, 80), 1, 3, 17)
        oracle.reprogram(inp, 9)
        oracle.reprogram(inp, 9)
        with pytest.raises(ReprogramConflict):
            oracle.reprogram(inp, 8)

    def test_reprogram_value_range(self, proto):
        oracle = self.make(proto)
        with pytest.raises(ValueError):
            oracle.reprogram(OracleInput((64, 80), 1, 3, 17), 16)

    def test_base_answers_match_pure_path(self, proto):
        oracle = self.make(proto, seed=21)
        inp = OracleInput((64, 80), 2, 5, 40)
        key = encode_input(PARAMS, proto, inp)
        assert oracle.query(inp) == ro_eval(derive_seed(21), key, PARAMS.l)
        assert oracle.encode(inp) == key

    def test_equal_vector_answered_from_transcript(self, proto):
        oracle = self.make(proto)
        a = (64, 80)
        y = oracle.query(OracleInput(a, 1, 3, 17))
        b = tuple([64, 80])
        assert b == a and b is not a
        assert oracle.query(OracleInput(b, 1, 3, 17)) == y
        assert len(oracle.transcript) == 1

    def test_interleaved_vectors_match_pure_path(self, proto):
        oracle = self.make(proto, seed=23)
        rng = random.Random(8)
        vecs = [rand_input(rng).a_vec for _ in range(2)]
        for n in range(60):
            inp = OracleInput(vecs[n % 2], rng.randrange(2) + 1, rng.randrange(16),
                              rng.randrange(509))
            assert oracle.query(inp) == ro_eval(
                derive_seed(23), encode_input(PARAMS, proto, inp), PARAMS.l)

    def test_reprogram_after_base_query_conflicts(self, proto):
        oracle = self.make(proto)
        oracle.query(OracleInput((64, 80), 1, 3, 17))
        with pytest.raises(ReprogramConflict):
            oracle.reprogram(OracleInput(tuple([64, 80]), 1, 3, 17), 0)

    def test_table_hit_without_programmer(self, proto):
        inp = OracleInput((64, 80), 1, 3, 17)
        key = encode_input(PARAMS, proto, inp)
        value = (ro_eval(derive_seed(11), key, PARAMS.l) + 1) % 16
        oracle = self.make(proto, table=ReprogramTable({table_key(PARAMS, proto, inp): value}))
        assert oracle.programmer is None
        assert oracle.query(inp) == value
        assert entries(oracle.transcript)[0].key == key

    def test_seed_length_enforced(self, proto):
        with pytest.raises(ValueError):
            RecordingOracle(PARAMS, proto, b"short")

    def test_challenge_space_compatibility(self, toy_group):
        narrow = Schnorr(toy_group, 8)
        with pytest.raises(ValueError):
            RecordingOracle(PARAMS, narrow, derive_seed(1))

    def test_programmer_hook_materializes_into_table(self, proto):
        oracle = self.make(proto)
        oracle.programmer = lambda inp: 3 if inp.i == 1 else None
        a = OracleInput((64, 80), 1, 0, 1)
        b = OracleInput((64, 80), 2, 0, 1)
        assert oracle.query(a) == 3
        assert table_key(PARAMS, proto, a) in oracle.table.overrides
        assert table_key(PARAMS, proto, b) not in oracle.table.overrides
        oracle.query(b)

    def test_zero_predicate_matches_leading_bits(self):
        # the all-zeros test on the truncated value, and the digest
        # comparison with zero_bound that grinding and the simulator's
        # sampler make, both equal "the first l digest bits are zero" for
        # every width, per an independent bit-string extraction
        import hashlib
        seed = derive_seed(33)
        for i in range(100):
            payload = i.to_bytes(2, "big")
            digest = hashlib.sha256(seed + payload).digest()
            bits = "".join(f"{b:08b}" for b in digest)
            for l in (1, 2, 5, 8, 13, 32, 64):
                y = ro_eval(seed, payload, l)
                assert f"{y:0{l}b}" == bits[:l]
                assert (y == 0) == (set(bits[:l]) == {"0"}) == (digest < zero_bound(l))


class TestTranscriptSerialization:
    def test_jsonl_roundtrip(self, proto):
        oracle = RecordingOracle(PARAMS, proto, derive_seed(44))
        rng = random.Random(17)
        for _ in range(50):
            oracle.query(rand_input(rng))
        text = oracle.transcript.to_jsonl(proto)
        back = OracleTranscript.from_jsonl(PARAMS, proto, text)
        assert [(e.key, e.inp, e.y) for e in entries(back)] == \
            [(e.key, e.inp, e.y) for e in entries(oracle.transcript)]

    def test_empty_transcript_serializes_empty(self, proto):
        assert OracleTranscript().to_jsonl(proto) == ""

    @pytest.mark.parametrize("key,value,why", [
        ("i", 0, "repetition index"), ("i", 3, "repetition index"),
        ("c", 16, "challenge"), ("y", 16, r"y in \[0, 2\^l\)")])
    def test_point_out_of_range(self, proto, key, value, why):
        # a point line in the writer's own text shape, one value just out of range
        point = json.dumps({"i": 1, "c": 0, "z": "40", "y": 0, key: value})
        assert _POINT_LINE.fullmatch(point)
        with pytest.raises(ValueError, match="transcript line 2: .*" + why):
            OracleTranscript.from_jsonl(PARAMS, proto, f'{{"a": ["40", "50"]}}\n{point}\n')

    def test_table_json(self, proto):
        oracle = RecordingOracle(PARAMS, proto, derive_seed(44))
        inp = OracleInput((64, 80), 1, 3, 17)
        oracle.reprogram(inp, 0)
        assert oracle.table.to_json() == {"vectors": [{
            "a": [proto.encode_commitment(a).hex() for a in inp.a_vec],
            "points": [{"i": 1, "c": 3, "z": proto.encode_response(17).hex(), "y": 0}]}]}
        back = ReprogramTable.from_json(PARAMS, proto, oracle.table.to_json())
        assert back.overrides == oracle.table.overrides == {table_key(PARAMS, proto, inp): 0}

    def test_jsonl_matches_reference_writer(self, toy_group):
        # the two-copy protocol, two commitment vectors queried in turn
        params = FischlinParams(k=3, l=4, N=600, T=600)
        protocol = protocol_for_challenge_space(toy_group, 600)
        oracle = RecordingOracle(params, protocol, derive_seed(45))
        rng = random.Random(18)
        inst = SigmaInstance(toy_group, 80)
        vecs = [tuple(protocol.commit(inst, rng)[0] for _ in range(3)) for _ in range(2)]
        for n in range(40):
            oracle.query(OracleInput(vecs[n % 2], rng.randrange(3) + 1, rng.randrange(600),
                                     (rng.randrange(509), rng.randrange(509))))
        ts = oracle.transcript
        assert len(ts.vectors) == 2
        # the line format with each run of one vector's lines grouped under
        # one vector line, every line the text of json.dumps
        want, last = [], None
        for line in reference_to_jsonl(ts, protocol).splitlines():
            rec = json.loads(line)
            a = rec.pop("a")
            if a != last:
                want.append(json.dumps({"a": a}))
                last = a
            want.append(json.dumps(rec))
        assert len(want) > len(ts) + 2
        assert ts.to_jsonl(protocol).splitlines() == want

    @pytest.mark.parametrize("key", [
        KEY[:-1], KEY + b"\0", KEY[:20], KEY[:13], KEY[:17], b"", b"FIS2" + KEY[4:],
        KEY[:8] + struct.pack(">I", 5) + KEY[12:]],
        ids=["cut-tail", "extended", "cut-prefix", "cut-length", "cut-field", "empty", "tag",
             "l"])
    def test_table_list_key_must_split(self, key):
        records = [{"key": key.hex(), "y": 0}]
        with pytest.raises(ValueError, match="table record 0"):
            ReprogramTable.from_json(PARAMS, FUZZ_PROTOCOLS[0][0], records)

    def test_table_repeated_point(self, proto):
        inp = OracleInput((64, 80), 2, 5, 300)
        listed = [{"key": encode_input(PARAMS, proto, inp).hex(), "y": 3}]
        grouped = {"vectors": [{"a": ["40", "50"], "points": [
            {"i": 2, "c": 5, "z": proto.encode_response(300).hex(), "y": 3}]}]}
        point = grouped["vectors"][0]["points"][0]
        # an equal repeat is accepted, as reprogram accepts it
        for obj in (listed * 2, {"vectors": [{"a": ["40", "50"], "points": [point] * 2}]}):
            assert ReprogramTable.from_json(PARAMS, proto, obj).overrides == \
                {table_key(PARAMS, proto, inp): 3}
        # the same point to another value is named, in either format; in
        # the grouped format the response may also be a non-canonical hex
        for obj, where in (
                (listed + [dict(listed[0], y=4)], "table record 1"),
                ({"vectors": [grouped["vectors"][0], {
                    "a": ["40", "0050"], "points": [dict(point, y=4, z="00" + point["z"])]}]},
                 "table vector 1 point 0")):
            with pytest.raises(ValueError, match=where + ".*programmed to both 3 and 4"):
                ReprogramTable.from_json(PARAMS, proto, obj)

    def test_table_prefix_canonical(self, toy_group):
        # the grouped format's commitment hex is canonicalised without
        # decoding: leading zero bytes, in a Schnorr commitment or inside a
        # packed element, still give the prefix the proof's vector encodes
        # to, and a packed commitment with another part count is malformed
        two = protocol_for_challenge_space(toy_group, 600)
        for params, protocol, a_vec, padded, z in (
                (PARAMS, Schnorr(toy_group, 16), (64, 80), ["0040", "000050"], 17),
                (FischlinParams(k=2, l=4, N=600, T=600), two, ((4, 16), (64, 80)),
                 [(pack_field(b"\0\4") + pack_field(b"\x10")).hex(),
                  (pack_field(b"@") + pack_field(b"\0\0P")).hex()], (1, 2))):
            point = {"i": 1, "c": 0, "z": protocol.encode_response(z).hex(), "y": 3}
            table = ReprogramTable.from_json(
                params, protocol, {"vectors": [{"a": padded, "points": [point]}]})
            assert table.overrides == {
                table_key(params, protocol, OracleInput(a_vec, 1, 0, z)): 3}
        for parts in ([b"\4"], [b"\4", b"\x10", b"@"]):
            bad = ["".join(pack_field(p).hex() for p in parts),
                   two.encode_commitment((64, 80)).hex()]
            with pytest.raises(ValueError, match="table vector 0"):
                ReprogramTable.from_json(FischlinParams(k=2, l=4, N=600, T=600), two,
                                         {"vectors": [{"a": bad, "points": []}]})

    def test_table_list_canonicalizes_each_vector_once(self, toy_group):
        # records that move between vectors reuse each raw prefix's
        # canonical prefix: k canonical_commitment calls per distinct vector
        params = FischlinParams(k=3, l=4, N=16, T=16)
        protocol = Schnorr(toy_group, 16)
        rng = random.Random(48)
        inputs = [rand_input(rng, k=3) for _ in range(3)]
        inputs = [OracleInput(inputs[n % 3].a_vec, n % 3 + 1, n, n) for n in range(16)]
        records = [{"key": encode_input(params, protocol, inp).hex(), "y": n % 16}
                   for n, inp in enumerate(inputs)]
        calls = []
        canonical = protocol.canonical_commitment
        protocol.canonical_commitment = lambda data: calls.append(data) or canonical(data)
        table = ReprogramTable.from_json(params, protocol, records)
        assert len(calls) == 3 * params.k
        assert table.overrides == {table_key(params, protocol, inp): n % 16
                                   for n, inp in enumerate(inputs)}

    def test_derive_seed_forms(self):
        assert len(derive_seed(7)) == 32
        assert derive_seed(7) == derive_seed(7)
        assert derive_seed(7) != derive_seed(8)
        assert derive_seed(b"abc") == derive_seed("abc")


# Reference: the JSONL writer of the earlier line format, as it was before
# each line was built from a per-vector head string, with one
# ``json.dumps`` per line. Every line holds its vector's ``a``.

def reference_to_jsonl(ts, protocol):
    hexes = [[protocol.encode_commitment(a).hex() for a in vec.a_vec]
             for vec in ts.vectors]
    points = [iter(vec.answers.items()) for vec in ts.vectors]
    lines = []
    for vid in ts.vids:
        tail, y = next(points[vid])
        i, c = struct.unpack_from(">II", tail)
        lines.append(json.dumps({"a": hexes[vid], "i": i, "c": c,
                                 "z": tail[10:].hex(), "y": y}) + "\n")
    return "".join(lines)


# Reference: the JSONL parser as it was when every line became a decoded
# ``OracleInput`` inside a ``TranscriptEntry``, with two rules added since.
# A repeat with the same y is dropped, one with another y is malformed. A
# line's ``a`` picks the current vector, and a line with any other key is a
# point of the current vector, so it reads the grouped format and the line
# format alike; a point before any vector is malformed. It returns the
# entries as (prefix, tail, input, y) tuples.

def reference_from_jsonl(params, protocol, text):
    entries, vectors, seen = [], {}, {}  # hex strings -> (a_vec, prefix); key -> y
    vec = None
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if "a" in rec:
                hexes = tuple(rec["a"])
                vec = vectors.get(hexes)
                if vec is None:
                    a_vec = tuple(protocol.decode_commitment(bytes.fromhex(h)) for h in hexes)
                    vec = vectors[hexes] = (a_vec, _encode_prefix(params, protocol, a_vec))
                if len(rec) == 1:
                    continue
            elif vec is None:
                raise ValueError("point line before any vector line")
            i, c, y = rec["i"], rec["c"], rec["y"]
            if not all(type(v) is int for v in (i, c, y)) or not 0 <= y < 1 << params.l:
                raise ValueError("i, c and y must be integers, y in [0, 2^l)")
            inp = OracleInput(vec[0], i, c, protocol.decode_response(bytes.fromhex(rec["z"])))
            if not 1 <= i <= params.k:
                raise ValueError("repetition index out of range")
            if not 0 <= c < params.N:
                raise ValueError("challenge out of range")
            tail = struct.pack(">II", i, c) + pack_field(protocol.encode_response(inp.z))
            old = seen.setdefault((vec[1], tail), y)
            if old != y:
                raise ValueError(f"query answered both {old} and {y}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"transcript line {n}: {exc!r}") from None
        if len(seen) > len(entries):
            entries.append((vec[1], tail, inp, y))
    return entries


FUZZ_GROUP = GroupParams(1019, 509, 4)
# Schnorr at N = 16, and N = 600 > 509: the two-copy RepeatedSigma
FUZZ_PROTOCOLS = [(Schnorr(FUZZ_GROUP, 16), 16),
                  (protocol_for_challenge_space(FUZZ_GROUP, 600), 600)]
JSON_VALUES = st.sampled_from([None, True, 1.5, -1, 2 ** 70, "", "zz", "0a", [], ["00"], {}])


@st.composite
def jsonl_cases(draw):
    """(params, protocol, text, mutation, honest): an honest transcript over
    one or two commitment vectors, written in the grouped format by
    ``to_jsonl`` or in the line format by ``reference_to_jsonl``, then one
    line cut, byte-flipped or extended, a field given a wrong JSON type or
    removed, a leading 00 put on a hex field, blank lines added, a point
    repeated with the same or another y, a point moved above every vector
    line, a point given an ``a`` key after ``i``, a point written in
    another JSON text shape, a point's i, c or y put just out of range, or
    left as is."""
    protocol, n = draw(st.sampled_from(FUZZ_PROTOCOLS))
    params = FischlinParams(k=draw(st.integers(1, 3)), l=4, N=n, T=n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    oracle = RecordingOracle(params, protocol, derive_seed(rng.randrange(99)))
    inst = SigmaInstance(FUZZ_GROUP, 80)
    vecs = [tuple(protocol.commit(inst, rng)[0] for _ in range(params.k))
            for _ in range(draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(1, 8))):
        c = rng.randrange(n)
        oracle.query(OracleInput(rng.choice(vecs), rng.randrange(params.k) + 1, c,
                                 protocol.respond(protocol.commit(inst, rng)[1],
                                                  SigmaWitness(7), c)))
    honest = oracle.transcript
    write = draw(st.sampled_from([honest.to_jsonl, partial(reference_to_jsonl, honest)]))
    lines = write(protocol).splitlines()
    mutation = draw(st.sampled_from(
        ["none", "cut", "flip", "extend", "type", "missing", "zero", "blank",
         "repeat", "repeat-other", "point-first", "a-after-i", "shape", "range"]))
    points = [j for j, x in enumerate(lines) if '"i": ' in x]
    j = draw(st.sampled_from(points if mutation in (
        "repeat", "repeat-other", "point-first", "a-after-i", "shape", "range")
        else range(len(lines))))
    line = lines[j]
    if mutation == "cut":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif mutation == "flip":
        pos = draw(st.integers(0, len(line) - 1))
        line = line[:pos] + draw(st.sampled_from('0189af"{}[],: -.xe')) + line[pos + 1:]
    elif mutation == "extend":
        line += draw(st.text(st.sampled_from('0af"{}[],: 1.'), min_size=1, max_size=6))
    elif mutation in ("type", "missing", "zero"):
        rec = json.loads(line)
        key = draw(st.sampled_from(list(rec)))
        if mutation == "type":
            rec[key] = draw(JSON_VALUES)
        elif mutation == "missing":
            del rec[key]
        elif key == "a" or "z" not in rec:
            rec["a"][0] = "00" + rec["a"][0]
        elif isinstance(protocol, RepeatedSigma) and draw(st.booleans()):
            # inside the first packed element, whose length grows by one
            z = bytes.fromhex(rec["z"])
            first = FieldReader(z, "z").field()
            rec["z"] = (pack_field(b"\0" + first) + z[2 + len(first):]).hex()
        else:
            rec["z"] = "00" + rec["z"]
        line = json.dumps(rec)
    elif mutation == "blank":
        line = draw(st.sampled_from(["", " ", "\t"])) + "\n" + line
    elif mutation == "a-after-i":
        # in the line format a second "a", of which json.loads keeps the last
        a = [protocol.encode_commitment(x).hex() for x in draw(st.sampled_from(vecs))]
        line = line.replace(', "c": ', f', "a": {json.dumps(a)}, "c": ', 1)
    elif mutation == "range":
        rec = json.loads(line)
        key, bad = draw(st.sampled_from(
            [("i", 0), ("i", params.k + 1), ("c", n), ("y", 16), ("y", -1)]))
        rec[key] = bad
        line = json.dumps(rec)
    elif mutation == "shape":
        rec = json.loads(line)
        shape = draw(st.sampled_from(["lead-zero", "upper", "reorder", "spaces"]))
        if shape == "lead-zero":
            line = line.replace('"c": ', '"c": 0', 1)
        elif shape == "upper" and rec["z"] != rec["z"].upper():
            line = line.replace(f'"z": "{rec["z"]}"', f'"z": "{rec["z"].upper()}"')
        elif shape == "reorder":
            line = json.dumps(dict(reversed(rec.items())))
        else:
            line = line.replace(": ", ":  ")
        assert _POINT_LINE.fullmatch(line) is None  # so read by json.loads
    lines[j] = line
    if mutation.startswith("repeat"):
        rec = json.loads(line)
        rec["y"] = (rec["y"] + (mutation == "repeat-other")) % 16
        if "a" in rec:  # a line-format line may go anywhere
            at = draw(st.integers(0, len(lines)))
        else:  # a grouped point goes back inside its own vector's run of lines
            heads = [v for v, x in enumerate(lines) if x.startswith('{"a": ')]
            at = draw(st.integers(max(v for v in heads if v < j) + 1,
                                  min([v for v in heads if v > j] + [len(lines)])))
        lines.insert(at, json.dumps(rec))
    elif mutation == "point-first":
        rec = json.loads(lines.pop(j))
        rec.pop("a", None)
        lines.insert(0, json.dumps(rec))
    return params, protocol, "".join(f"{x}\n" for x in lines), mutation, honest


class TestTranscriptParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(jsonl_cases())
    def test_matches_reference(self, case):
        """The parser raises the reference's ValueError message or returns
        its entries; no other exception escapes, a point repeated with
        another y, put before every vector or out of range is rejected, and an unchanged
        transcript in either format reads back to the honest transcript,
        which it writes back byte for byte in the grouped format; a point
        repeated with its own y adds no query."""
        params, protocol, text, mutation, honest = case
        try:
            want = reference_from_jsonl(params, protocol, text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                OracleTranscript.from_jsonl(params, protocol, text)
            assert str(got.value) == str(exc)
            assert mutation not in ("none", "repeat")
            if mutation == "point-first":
                assert str(exc) == "transcript line 1: " \
                    "ValueError('point line before any vector line')"
            return
        assert mutation not in ("repeat-other", "point-first", "range")
        ts = OracleTranscript.from_jsonl(params, protocol, text)
        assert [(e.prefix, e.tail, e.inp, e.y) for e in entries(ts)] == want
        assert len(ts) == sum(len(v.answers) for v in ts.vectors)
        if mutation == "none":
            assert ts.to_jsonl(protocol) == honest.to_jsonl(protocol)
        elif mutation == "repeat":
            assert len(ts) == len(honest)


@st.composite
def table_cases(draw):
    """(params, protocol, table, listed, text, mutation): a reprogram table
    over one or two commitment vectors, written in the grouped or the list
    format, then its JSON text cut, flipped or extended, a field given a
    wrong JSON type, removed or made non-hex, a key or commitment list made
    unsplittable, a point repeated with the same or another value, or left
    as is."""
    protocol, n = draw(st.sampled_from(FUZZ_PROTOCOLS))
    params = FischlinParams(k=draw(st.integers(1, 3)), l=4, N=n, T=n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    oracle = RecordingOracle(params, protocol, derive_seed(rng.randrange(99)))
    inst = SigmaInstance(FUZZ_GROUP, 80)
    vecs = [tuple(protocol.commit(inst, rng)[0] for _ in range(params.k))
            for _ in range(draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(1, 6))):
        c = rng.randrange(n)
        z = protocol.respond(protocol.commit(inst, rng)[1], SigmaWitness(7), c)
        try:
            oracle.reprogram(OracleInput(rng.choice(vecs), rng.randrange(params.k) + 1, c, z),
                             rng.randrange(16))
        except ReprogramConflict:  # one point drawn twice, to another value
            pass
    table = oracle.table
    listed = draw(st.booleans())
    if listed:
        obj = [{"key": (p + t).hex(), "y": y} for (p, t), y in table.overrides.items()]
        recs = obj
    else:
        obj = table.to_json()
        recs = [pt for vec in obj["vectors"] for pt in vec["points"]]
    mutation = draw(st.sampled_from(
        ["none", "cut", "flip", "extend", "type", "missing", "nonhex", "split",
         "repeat", "repeat-other"]))
    rec = draw(st.sampled_from(recs))
    fields = ["key", "y"] if listed else ["i", "c", "z", "y"]
    if mutation in ("type", "missing", "nonhex"):
        target = draw(st.sampled_from([rec, obj] if listed else [rec, *obj["vectors"], obj]))
        if isinstance(target, list):  # the list itself: replace a record
            target[draw(st.integers(0, len(target) - 1))] = draw(JSON_VALUES)
        else:
            names = fields if target is rec else list(target)
            name = draw(st.sampled_from(names))
            if mutation == "type":
                target[name] = draw(JSON_VALUES)
            elif mutation == "missing":
                del target[name]
            elif name in ("key", "z"):
                target[name] = target[name] + "g"
            elif name == "a":
                target["a"] = ["0x"] + target["a"][1:]
    elif mutation == "split":
        if listed:
            key = rec["key"]
            rec["key"] = key[:2 * draw(st.integers(0, len(key) // 2 - 1))]
        else:
            vec = obj["vectors"][0]
            vec["a"] = vec["a"][:-1] if draw(st.booleans()) else vec["a"] + vec["a"][:1]
    elif mutation.startswith("repeat"):
        copy = dict(rec, y=(rec["y"] + (mutation == "repeat-other")) % 16)
        if listed:
            obj.append(copy)
        else:
            next(v for v in obj["vectors"] if any(p is rec for p in v["points"]))[
                "points"].append(copy)
    text = json.dumps(obj)
    if mutation == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation == "flip":
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + draw(st.sampled_from('0189af"{}[],: -.xeg')) + text[pos + 1:]
    elif mutation == "extend":
        text += draw(st.text(st.sampled_from('0af"{}[],: 1.'), min_size=1, max_size=6))
    return params, protocol, table, listed, text, mutation


class TestTableParserFuzz:
    @settings(max_examples=600, deadline=None)
    @given(table_cases())
    def test_only_value_error(self, case):
        """``from_json`` returns a table or raises ValueError, with a small
        bounded peak allocation; an unchanged table of either format reads
        back to the same overrides, a point repeated with another value is
        rejected, and one repeated with its own value is accepted."""
        params, protocol, table, listed, text, mutation = case
        try:
            obj = json.loads(text)
        except ValueError:
            return
        tracemalloc.start()
        try:
            back = ReprogramTable.from_json(params, protocol, obj)
        except ValueError:
            back = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1 << 20
        if mutation in ("none", "repeat"):
            assert back is not None and back.overrides == table.overrides
            if mutation == "none" and not listed:
                assert back.to_json() == obj
        elif mutation in ("repeat-other", "split"):
            assert back is None


class TestTableWriter:
    @settings(max_examples=100, deadline=None)
    @given(table_cases())
    def test_matches_json_dump(self, case):
        """``write_json`` writes the text ``json.dump`` of ``to_json`` with
        indent 2 writes, over one or two commitment vectors."""
        table = case[2]
        fh = io.StringIO()
        table.write_json(fh)
        assert fh.getvalue() == json.dumps(table.to_json(), indent=2)

    def test_empty_table(self):
        fh = io.StringIO()
        ReprogramTable().write_json(fh)
        assert fh.getvalue() == json.dumps({"vectors": []}, indent=2)

    def test_interleaved_vectors_grouped_in_order(self, proto):
        # points programmed to two vectors in turn come out grouped by
        # vector, the first programmed first (64 points, then 150), and the
        # writer's text is that of json.dumps with indent 2
        oracle = RecordingOracle(PARAMS, proto, derive_seed(46))
        for n in range(214):
            a_vec = (80, 64) if n % 3 == 0 and n < 192 else (64, 80)
            oracle.reprogram(OracleInput(a_vec, n % 2 + 1, n % 16, n), n % 16)
        obj = oracle.table.to_json()
        assert [len(v["points"]) for v in obj["vectors"]] == [64, 150]
        fh = io.StringIO()
        oracle.table.write_json(fh)
        assert fh.getvalue() == json.dumps(obj, indent=2)
