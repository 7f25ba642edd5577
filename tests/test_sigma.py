import random
import re
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from fischlin.sigma import (
    CommitState,
    GroupParams,
    RepeatedSigma,
    Schnorr,
    SigmaInstance,
    SigmaWitness,
    _fields,
    _unpack,
    _width,
    encode_int,
    keygen,
    pack_field,
    protocol_for_challenge_space,
    restrict_and_repeat,
)
import proof_reference


class TestGroupParams:
    def test_toy_group_valid(self, toy_group):
        assert toy_group.in_subgroup(4)
        assert toy_group.in_subgroup(80)

    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            GroupParams(1019, 510, 4)

    def test_wrong_order_generator_rejected(self):
        # 2 has order 1018, not 509
        with pytest.raises(ValueError):
            GroupParams(1019, 509, 2)

    def test_q_must_divide_p_minus_1(self):
        with pytest.raises(ValueError):
            GroupParams(1021, 509, 4)

    def test_config_roundtrip(self, toy_group):
        assert GroupParams.from_config(toy_group.to_config()) == toy_group


class TestCommit:
    def test_fixed_randomness(self, toy_schnorr, toy_instance, stub_rng):
        inst, _ = toy_instance
        a, state = toy_schnorr.commit(inst, stub_rng(3))
        assert a == 64  # 4^3 mod 1019
        assert state.r == 3 and state.a == 64

    def test_zero_randomness_gives_identity(self, toy_schnorr, toy_instance, stub_rng):
        inst, _ = toy_instance
        a, _ = toy_schnorr.commit(inst, stub_rng(0))
        assert a == 1

    def test_commitment_uniform_over_subgroup(self, toy_schnorr, toy_instance):
        # min-entropy log2(q): 10000 commitments, chi-square vs uniform
        inst, _ = toy_instance
        rng = random.Random(42)
        counts = Counter(toy_schnorr.commit(inst, rng)[0] for _ in range(10000))
        subgroup = {pow(4, r, 1019) for r in range(509)}
        assert set(counts) <= subgroup
        freq = [counts.get(a, 0) for a in sorted(subgroup)]
        assert chisquare(freq).pvalue > 0.01


class TestRespond:
    def test_example(self, toy_schnorr):
        from fischlin.sigma import CommitState
        state = CommitState(3, 64)
        assert toy_schnorr.respond(state, SigmaWitness(7), 2) == 17
        assert toy_schnorr.respond(state, SigmaWitness(7), 5) == 38

    def test_zero_challenge_returns_randomness(self, toy_schnorr):
        from fischlin.sigma import CommitState
        assert toy_schnorr.respond(CommitState(3, 64), SigmaWitness(7), 0) == 3

    def test_out_of_range_challenge(self, toy_schnorr):
        from fischlin.sigma import CommitState
        with pytest.raises(ValueError):
            toy_schnorr.respond(CommitState(3, 64), SigmaWitness(7), 509)
        with pytest.raises(ValueError):
            toy_schnorr.respond(CommitState(3, 64), SigmaWitness(7), -1)


TOY = GroupParams(1019, 509, 4)


TINY = GroupParams(23, 11, 2)


@st.composite
def walk_cases(draw, copies):
    """(protocol, commit state, witness, T): Schnorr for one copy, else
    RepeatedSigma over a base space that N is often no power of, and a cut
    T <= N that is often below N."""
    group = draw(st.sampled_from([TOY, TINY]))
    q = group.q
    if copies == 1:
        proto = Schnorr(group, draw(st.integers(2, q)))
        state = CommitState(draw(st.integers(0, q - 1)), None)
    else:
        base = draw(st.sampled_from([2, 3, 5, 7, q]))
        proto = RepeatedSigma(Schnorr(group, base), copies,
                              draw(st.integers(2, min(base ** copies, 3000))))
        state = CommitState(tuple(CommitState(r, None) for r in draw(
            st.lists(st.integers(0, q - 1), min_size=copies, max_size=copies))), None)
    n = proto.challenge_space
    return proto, state, SigmaWitness(draw(st.integers(1, q - 1))), \
        draw(st.one_of(st.just(n), st.integers(1, n)))


def check_walk(proto, state, wit, t):
    """The walk's first t fields are the packed ``respond`` encodings, and
    an uncut walk yields exactly N of them."""
    want = [pack_field(proto.encode_response(proto.respond(state, wit, c)))
            for c in range(t)]
    assert list(islice(proto.response_fields(state, wit), t)) == want
    if t == proto.challenge_space:
        assert list(proto.response_fields(state, wit)) == want


class TestResponseWalk:
    """``response_fields`` yields exactly the packed encoding of ``respond``
    for c = 0, 1, ... N - 1, and a walk cut short at T yields its first T."""

    @settings(max_examples=200, deadline=None)
    @given(walk_cases(1))
    def test_schnorr(self, case):
        check_walk(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(walk_cases))
    def test_repeated(self, case):
        check_walk(*case)


class TestVerify:
    def test_accepting_transcript(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        assert toy_schnorr.verify(inst, 64, 2, 17)

    def test_perturbed_response_rejected(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        assert not toy_schnorr.verify(inst, 64, 2, 18)

    def test_identity_transcript(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        assert toy_schnorr.verify(inst, 1, 0, 0)

    def test_malformed_values_reject_not_raise(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        assert not toy_schnorr.verify(inst, 0, 2, 17)
        assert not toy_schnorr.verify(inst, 1019, 2, 17)
        assert not toy_schnorr.verify(inst, 64, 509, 17)
        assert not toy_schnorr.verify(inst, 64, 2, 509)
        assert not toy_schnorr.verify(inst, 64, -1, 17)


class TestExtract:
    def test_example_pair(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        w = toy_schnorr.extract(inst, 64, 2, 17, 5, 38)
        assert w == SigmaWitness(7)  # 21 * 170 mod 509

    def test_equal_challenges_rejected(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        with pytest.raises(ValueError):
            toy_schnorr.extract(inst, 64, 2, 17, 2, 17)

    def test_invalid_transcript_rejected(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        with pytest.raises(ValueError):
            toy_schnorr.extract(inst, 64, 2, 18, 5, 38)

    def test_exhaustive_over_witnesses(self, toy_group):
        # every witness on the toy group is recovered from one honest pair
        proto = Schnorr(toy_group)
        for w in range(509):
            inst = SigmaInstance(toy_group, pow(4, w, 1019))
            r, c1, c2 = (w * 7 + 1) % 509, 2, 5
            a = pow(4, r, 1019)
            z1, z2 = (r + c1 * w) % 509, (r + c2 * w) % 509
            assert proto.extract(inst, a, c1, z1, c2, z2).w == w


class TestSimulate:
    def test_fixed_example(self, toy_schnorr, toy_instance, stub_rng):
        inst, _ = toy_instance
        a, z = toy_schnorr.simulate(inst, 2, stub_rng(17))
        assert (a, z) == (64, 17)
        assert toy_schnorr.verify(inst, a, 2, z)

    def test_zero_challenge(self, toy_schnorr, toy_instance, stub_rng):
        inst, _ = toy_instance
        a, z = toy_schnorr.simulate(inst, 0, stub_rng(9))
        assert a == pow(4, 9, 1019)

    def test_simulated_transcripts_always_verify(self, toy_schnorr, toy_instance):
        inst, _ = toy_instance
        rng = random.Random(5)
        for _ in range(200):
            c = rng.randrange(509)
            a, z = toy_schnorr.simulate(inst, c, rng)
            assert toy_schnorr.verify(inst, a, c, z)

    def test_exact_distribution_matches_honest(self, tiny_group, stub_rng):
        # perfect SHVZK on the q=11 group: for each challenge, the honest
        # transcripts over all commit randomness and the simulated ones
        # over all responses are the same uniform set
        proto = Schnorr(tiny_group)
        inst = SigmaInstance(tiny_group, pow(2, 4, 23))
        wit = SigmaWitness(4)
        for c in range(11):
            honest = Counter()
            for r in range(11):
                a, state = proto.commit(inst, stub_rng(r))
                honest[(a, proto.respond(state, wit, c))] += 1
            sim = Counter()
            for z in range(11):
                sim[proto.simulate(inst, c, stub_rng(z))] += 1
            assert honest == sim
            assert set(honest.values()) == {1}  # z uniform, a determined


class TestSigmaInvariants:
    def test_unique_responses_exhaustive(self, tiny_group):
        # for every (a, c) exactly one z satisfies g^z = a * x^c
        proto = Schnorr(tiny_group)
        inst = SigmaInstance(tiny_group, pow(2, 6, 23))
        subgroup = sorted({pow(2, r, 23) for r in range(11)})
        for a in subgroup:
            for c in range(11):
                sols = [z for z in range(11) if proto.verify(inst, a, c, z)]
                assert len(sols) == 1

    def test_completeness_exhaustive(self, tiny_group, stub_rng):
        proto = Schnorr(tiny_group)
        for w in range(11):
            inst = SigmaInstance(tiny_group, pow(2, w, 23))
            wit = SigmaWitness(w)
            for r in range(11):
                a, state = proto.commit(inst, stub_rng(r))
                for c in range(11):
                    assert proto.verify(inst, a, c, proto.respond(state, wit, c))

    def test_special_soundness_roundtrip_random(self, toy_schnorr, toy_group):
        rng = random.Random(7)
        for _ in range(100):
            inst, wit = keygen(toy_group, rng)
            a, state = toy_schnorr.commit(inst, rng)
            c1 = rng.randrange(509)
            c2 = (c1 + 1 + rng.randrange(507)) % 509
            z1 = toy_schnorr.respond(state, wit, c1)
            z2 = toy_schnorr.respond(state, wit, c2)
            assert toy_schnorr.extract(inst, a, c1, z1, c2, z2) == wit

    def test_keygen_excludes_zero_witness(self, tiny_group):
        rng = random.Random(0)
        for _ in range(300):
            _, wit = keygen(tiny_group, rng)
            assert 1 <= wit.w < 11


class TestRestrictAndRepeat:
    def test_single_copy_is_plain_restriction(self, toy_group):
        proto = restrict_and_repeat(Schnorr(toy_group), 1, 384)
        assert isinstance(proto, Schnorr)
        assert proto.challenge_space == 384
        assert not proto.verify(
            SigmaInstance(toy_group, 80), 64, 384, 17)

    def test_digit_decomposition(self, toy_group):
        base = Schnorr(toy_group, 2)
        proto = RepeatedSigma(base, 3, 8)
        from fischlin.sigma import _digits
        assert _digits(5, 2, 3) == (1, 0, 1)

    def test_oversized_space_rejected(self, toy_group):
        with pytest.raises(ValueError):
            RepeatedSigma(Schnorr(toy_group, 2), 3, 9)

    def test_repeated_roundtrip_and_extraction(self, tiny_group):
        # extraction across a differing digit recovers the witness
        base = Schnorr(tiny_group)
        proto = RepeatedSigma(base, 2, 100)
        rng = random.Random(3)
        inst, wit = keygen(tiny_group, rng)
        a, state = proto.commit(inst, rng)
        for c1, c2 in [(0, 1), (5, 99), (10, 11), (22, 23)]:
            z1 = proto.respond(state, wit, c1)
            z2 = proto.respond(state, wit, c2)
            assert proto.verify(inst, a, c1, z1)
            assert proto.verify(inst, a, c2, z2)
            assert proto.extract(inst, a, c1, z1, c2, z2) == wit

    def test_repeated_simulate_verifies(self, tiny_group):
        proto = RepeatedSigma(Schnorr(tiny_group), 2, 100)
        inst = SigmaInstance(tiny_group, pow(2, 5, 23))
        rng = random.Random(11)
        for c in (0, 17, 99):
            a, z = proto.simulate(inst, c, rng)
            assert proto.verify(inst, a, c, z)

    def test_repeated_unique_responses(self, tiny_group):
        # coordinate-wise uniqueness carries over to the tuple response
        proto = RepeatedSigma(Schnorr(tiny_group), 2, 100)
        inst = SigmaInstance(tiny_group, pow(2, 3, 23))
        rng = random.Random(4)
        a, state = proto.commit(inst, rng)
        z = proto.respond(state, SigmaWitness(3), 42)
        import itertools
        sols = [zz for zz in itertools.product(range(11), repeat=2)
                if proto.verify(inst, a, 42, zz)]
        assert sols == [z]

    def test_codec_roundtrip(self, tiny_group):
        proto = RepeatedSigma(Schnorr(tiny_group), 3, 1000)
        a = (4, 9, 1)
        assert proto.decode_commitment(proto.encode_commitment(a)) == a
        z = (0, 10, 7)
        assert proto.decode_response(proto.encode_response(z)) == z

    def test_protocol_for_challenge_space(self, toy_group):
        assert isinstance(protocol_for_challenge_space(toy_group, 509), Schnorr)
        proto = protocol_for_challenge_space(toy_group, 768)
        assert isinstance(proto, RepeatedSigma) and proto.copies == 2
        assert protocol_for_challenge_space(toy_group, 509 ** 2 + 1).copies == 3


def outcome(read, *args):
    """What ``read`` returns, or ValueError if it raises that."""
    try:
        return read(*args)
    except ValueError:
        return ValueError


@st.composite
def packed_lists(draw):
    """(data, count, start): a packed list after ``start`` junk bytes, of
    short, empty and 0xFFFF-byte fields, then cut, extended or given a
    0xFFFF length at some offset, or random bytes; ``count`` is the
    field count give or take one."""
    head = draw(st.binary(max_size=3))
    parts = draw(st.lists(st.one_of(st.binary(max_size=4), st.just(b""),
                                    st.just(b"\x5a" * 0xFFFF)), max_size=4))
    data = head + b"".join(pack_field(p) for p in parts)
    mutation = draw(st.sampled_from(["none", "cut", "extend", "ffff", "random"]))
    if mutation == "cut" and data:
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif mutation == "extend":
        data += draw(st.binary(min_size=1, max_size=3))
    elif mutation == "ffff":
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + b"\xff\xff" + data[pos + 2:]
    elif mutation == "random":
        data = head + draw(st.binary(max_size=12))
    count = max(0, len(parts) + draw(st.integers(-1, 1)))
    return data, count, min(len(head), len(data))


class TestPackedFields:
    """``_fields`` and ``_unpack`` against the bounded reader of
    ``tests/proof_reference.py``."""

    @settings(max_examples=400, deadline=None)
    @given(packed_lists())
    def test_same_fields_as_reference(self, case):
        data, count, start = case

        def reference(data, count, start):
            reader = proof_reference.Reader(data, start)
            return [reader.field() for _ in range(count)], reader.off

        assert outcome(_fields, data, count, start) == outcome(reference, data, count, start)
        assert outcome(_unpack, data[start:], count) == \
            outcome(proof_reference.fields, data[start:], count)

    def test_messages(self):
        assert _fields(b"\0\1a\0\0rest", 2, 0) == ([b"a", b""], 5)
        assert _unpack(b"", 0) == []
        for data in (b"\0", b"\0\2a"):
            with pytest.raises(ValueError, match="^truncated element list$"):
                _unpack(data, 1)
        with pytest.raises(ValueError, match="^trailing bytes$"):
            _unpack(b"\0\1ab", 1)


# q = 65633 takes 3 bytes; 131267 = 2 * 65633 + 1.
WIDE_GROUP = GroupParams(131267, 65633, 4)
HEX_PROTOCOLS = [Schnorr(GroupParams(1019, 509, 4)),
                 protocol_for_challenge_space(GroupParams(1019, 509, 4), 600),
                 Schnorr(WIDE_GROUP),
                 protocol_for_challenge_space(WIDE_GROUP, 65634),
                 protocol_for_challenge_space(WIDE_GROUP, 65633 ** 2 + 1)]


def parts_of(protocol, data):
    """The encode_int parts of a response encoding: one for Schnorr."""
    return _unpack(data, protocol.copies) if isinstance(protocol, RepeatedSigma) else [data]


@st.composite
def response_bytes(draw):
    """(protocol, data): an in-range response's encoding, then a 00 put
    before a part, a byte flipped, the bytes cut or extended, a part made
    one byte wider than any element, or random bytes."""
    protocol = draw(st.sampled_from(HEX_PROTOCOLS))
    q, width = protocol.group.q, _width(protocol.group.q)
    copies = getattr(protocol, "copies", 1)
    z = [draw(st.sampled_from([0, 1, 255, 256, q - 1]) | st.integers(0, q - 1))
         for _ in range(copies)]
    parts = [encode_int(zi) for zi in z]
    j = draw(st.integers(0, copies - 1))
    mutation = draw(st.sampled_from(["none", "zero", "flip", "cut", "extend", "wide", "random"]))
    if mutation == "zero":
        parts[j] = b"\0" + parts[j]
    elif mutation == "wide":
        parts[j] = bytes([draw(st.integers(1, 255))]) + draw(
            st.binary(min_size=width, max_size=width))
    if copies == 1:
        data = parts[0]
    else:
        data = b"".join(pack_field(p) for p in parts)
    if mutation == "flip" and data:
        pos = draw(st.integers(0, len(data) - 1))
        data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
    elif mutation == "cut" and data:
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif mutation == "extend":
        data += draw(st.binary(min_size=1, max_size=3))
    elif mutation == "random":
        data = draw(st.binary(max_size=3 * copies * (2 + width)))
    return protocol, data, tuple(z) if mutation == "none" else None


class TestResponseHex:
    """``response_hex`` matches the hex of exactly the canonical responses
    whose parts are at most an element wide."""

    @settings(max_examples=500, deadline=None)
    @given(response_bytes())
    def test_match_iff_canonical_and_in_width(self, case):
        protocol, data, z = case
        matched = re.fullmatch(protocol.response_hex, data.hex()) is not None
        try:
            canonical = protocol.canonical_response(data) == data
            in_width = all(len(p) <= _width(protocol.group.q) for p in parts_of(protocol, data))
        except ValueError:
            canonical = False
        assert matched == (canonical and in_width)
        if z is not None:
            value = z if isinstance(protocol, RepeatedSigma) else z[0]
            assert re.fullmatch(protocol.response_hex, protocol.encode_response(value).hex())
