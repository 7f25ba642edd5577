import functools
import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischlin import oracle as oracle_mod
from fischlin.extractor import attempts_per_repetition
from fischlin.oracle import HashingOracle, OracleInput, RecordingOracle, ReprogramTable, \
    derive_seed, encode_input
from fischlin.sigma import GroupParams, RepeatedSigma, Schnorr, SigmaInstance, SigmaWitness, \
    keygen, pack_field, protocol_for_challenge_space
from fischlin.transform import (
    Abort,
    FischlinParams,
    Proof,
    completeness_error,
    deserialize_proof,
    peek_params,
    proof_to_json,
    prove,
    serialize_proof,
    verify,
)
import proof_reference
from proof_reference import proof_from_json
from transcript_entries import decode_input, entries


class TestParams:
    def test_legacy_derivation(self):
        p = FischlinParams.from_security(48, 6)
        assert (p.k, p.l) == (8, 6)
        assert p.N == p.T == 37

    def test_legacy_requires_divisibility(self):
        with pytest.raises(ValueError):
            FischlinParams.from_security(50, 6)

    def test_explicit_rate(self):
        p = FischlinParams.explicit(8, 6, 4)
        assert p.N == p.T == 768  # 4 * 64 * log2(8)

    def test_explicit_rate_large(self):
        p = FischlinParams.explicit(2 ** 30, 14, 1)
        assert p.N == 2 ** 14 * 30 == 491520

    def test_validation(self):
        with pytest.raises(ValueError):
            FischlinParams(k=0, l=2, N=4, T=4)
        with pytest.raises(ValueError):
            FischlinParams(k=1, l=65, N=4, T=4)
        with pytest.raises(ValueError):
            FischlinParams(k=1, l=2, N=1, T=1)
        with pytest.raises(ValueError):
            FischlinParams(k=1, l=2, N=4, T=5)
        with pytest.raises(ValueError):
            FischlinParams(k=1, l=2, N=4, T=0)


def make_run(group, params, seed):
    proto = protocol_for_challenge_space(group, params.N)
    rng = random.Random(seed)
    inst, wit = keygen(group, rng)
    oracle = RecordingOracle(params, proto, derive_seed(seed))
    return proto, rng, inst, wit, oracle


class TestProveVerify:
    def test_toy_run_verifies(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 1)
        proof = prove(params, proto, inst, wit, oracle, rng)
        assert verify(params, proto, inst, proof, oracle)

    def test_completeness_many_runs(self, toy_group):
        params = FischlinParams(k=2, l=1, N=64, T=64)
        # per-repetition abort probability 2^-64: expect zero aborts
        aborts = 0
        for seed in range(1000):
            proto, rng, inst, wit, oracle = make_run(toy_group, params, seed)
            try:
                proof = prove(params, proto, inst, wit, oracle, rng)
            except Abort:
                aborts += 1
                continue
            assert verify(params, proto, inst, proof, oracle)
        assert aborts == 0

    def test_single_attempt_abort_rate(self, toy_group):
        # with T = 1 each repetition succeeds with probability 2^-l
        params = FischlinParams(k=1, l=1, N=2, T=1)
        runs, hits = 2000, 0
        for seed in range(runs):
            proto, rng, inst, wit, oracle = make_run(toy_group, params, seed)
            try:
                prove(params, proto, inst, wit, oracle, rng)
                hits += 1
            except Abort:
                pass
        p = 0.5
        sigma = (runs * p * (1 - p)) ** 0.5
        assert abs(hits - runs * p) <= 3 * sigma

    def test_tampered_response_rejected(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 3)
        proof = prove(params, proto, inst, wit, oracle, rng)
        bad = Proof(proof.a_vec, proof.c_vec,
                    ((proof.z_vec[0] + 1) % 509,) + proof.z_vec[1:])
        assert not verify(params, proto, inst, bad, oracle)

    def test_swapped_repetitions_rejected(self, toy_group):
        # the repetition index is bound into the hash input, so swapping
        # the accepted (c, z) pairs between repetitions must not verify
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 4)
        proof = prove(params, proto, inst, wit, oracle, rng)
        swapped = Proof(proof.a_vec, proof.c_vec[::-1], proof.z_vec[::-1])
        assert not verify(params, proto, inst, swapped, oracle)

    def test_malformed_proofs_reject_not_raise(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 5)
        proof = prove(params, proto, inst, wit, oracle, rng)
        assert not verify(params, proto, inst,
                          Proof(proof.a_vec[:1], proof.c_vec[:1], proof.z_vec[:1]),
                          oracle)
        assert not verify(params, proto, inst,
                          Proof(proof.a_vec, (16, proof.c_vec[1]), proof.z_vec),
                          oracle)
        assert not verify(params, proto, inst,
                          Proof(proof.a_vec, ("x", proof.c_vec[1]), proof.z_vec),
                          oracle)

    def test_verifier_makes_exactly_k_queries_when_accepting(self, toy_group):
        params = FischlinParams(k=3, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 6)
        proof = prove(params, proto, inst, wit, oracle, rng)
        fresh = RecordingOracle(params, proto, derive_seed(6))
        assert verify(params, proto, inst, proof, fresh)
        assert len(fresh.transcript) == params.k

    def test_query_discipline(self, toy_group):
        # for each repetition the log holds challenges 0..c_i in order,
        # each with its valid response: the material extraction feeds on
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 7)
        proof = prove(params, proto, inst, wit, oracle, rng)
        for i in range(1, params.k + 1):
            seen = [e.inp for e in entries(oracle.transcript) if e.inp.i == i]
            assert [e.c for e in seen] == list(range(proof.c_vec[i - 1] + 1))
            for e in seen:
                assert e.a_vec == proof.a_vec
                assert proto.verify(inst, e.a_vec[i - 1], e.c, e.z)

    def test_prefix_encoded_once_per_proof(self, toy_group, monkeypatch):
        # the commitment vector is encoded once, however many queries and
        # repetitions the prover makes, and every entry shares its bytes
        calls = []
        encode_prefix = oracle_mod._encode_prefix
        monkeypatch.setattr(oracle_mod, "_encode_prefix",
                            lambda *a: calls.append(a) or encode_prefix(*a))
        params = FischlinParams.explicit(256, 4, 2)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 12)
        prove(params, proto, inst, wit, oracle, rng)
        assert len(calls) == 1
        first = entries(oracle.transcript)[0].prefix
        assert len(oracle.transcript) > 256
        assert all(e.prefix is first for e in entries(oracle.transcript))

    def test_grinding_keeps_no_tracked_object_per_attempt(self, toy_group, monkeypatch):
        # prove grinds through RecordingOracle.grind: with no table and no
        # programmer it asks ``query`` nothing, and what it records is
        # bytes and ints, so the count of objects the cyclic collector
        # tracks grows by the k commitment tuples the oracle keeps and a
        # constant, not with the number of attempts
        def no_query(*_):
            raise AssertionError("a plain oracle's grinding called query")

        monkeypatch.setattr(RecordingOracle, "query", no_query)
        params = FischlinParams(k=40, l=8, N=4096, T=4096)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 16)
        assert proto.copies == 2
        gc.collect()
        before = len(gc.get_objects())
        prove(params, proto, inst, wit, oracle, rng)
        assert len(oracle.transcript) >= 10_000
        assert len(gc.get_objects()) - before <= params.k + 16

    @pytest.mark.parametrize("n", [64, 768], ids=["schnorr", "two-copy"])
    @pytest.mark.parametrize("oracle_cls", [HashingOracle, RecordingOracle])
    def test_prove_responds_once_per_repetition(self, toy_group, monkeypatch, n, oracle_cls):
        # grinding hashes the walk's packed fields; respond runs once per
        # repetition, for the challenge that won
        params = FischlinParams(k=12, l=3, N=n, T=n)
        proto, rng, inst, wit, _ = make_run(toy_group, params, 4)
        calls = []
        respond = proto.respond
        monkeypatch.setattr(proto, "respond", lambda *a: calls.append(a[2]) or respond(*a))
        oracle = oracle_cls(params, proto, derive_seed(4))
        proof = prove(params, proto, inst, wit, oracle, rng)
        assert calls == list(proof.c_vec)
        assert oracle.attempts > 2 * params.k
        assert verify(params, proto, inst, proof, oracle)

    def test_attempt_counts_match_challenges(self, toy_group):
        params = FischlinParams(k=4, l=2, N=32, T=32)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 8)
        proof = prove(params, proto, inst, wit, oracle, rng)
        counts = attempts_per_repetition(proof, oracle.transcript)
        assert counts == [c + 1 for c in proof.c_vec]

    def test_grinding_cost_geometric(self, toy_group):
        # expected total queries about k * 2^l; Monte-Carlo within 5%
        params = FischlinParams(k=4, l=4, N=256, T=256)
        total, runs = 0, 400
        for seed in range(runs):
            proto, rng, inst, wit, oracle = make_run(toy_group, params, seed)
            prove(params, proto, inst, wit, oracle, rng)
            total += len(oracle.transcript)
        mean = total / runs
        expect = params.k * 2 ** params.l
        assert abs(mean - expect) / expect < 0.05


class TestCompletenessError:
    def test_standard_point(self):
        err = completeness_error(FischlinParams.explicit(8, 6, 4))
        exact = 8 * (63 / 64) ** 768
        assert err.upper_bound == pytest.approx(exact, rel=1e-12)
        assert 4e-5 < err.upper_bound < 8 * 2.718282 ** -12
        assert err.per_repetition == pytest.approx((63 / 64) ** 768)

    def test_zero_attempts_aborts_surely(self):
        err = completeness_error(FischlinParams(k=3, l=2, N=4, T=4), attempts=0)
        assert err.per_repetition == 1.0
        assert err.exact == 1.0

    def test_monte_carlo_matches_exact(self, toy_group):
        params = FischlinParams(k=4, l=2, N=4, T=4)
        exact = completeness_error(params).exact
        runs, aborts = 2000, 0
        for seed in range(runs):
            proto, rng, inst, wit, oracle = make_run(toy_group, params, seed)
            try:
                prove(params, proto, inst, wit, oracle, rng)
            except Abort:
                aborts += 1
        sigma = (runs * exact * (1 - exact)) ** 0.5
        assert abs(aborts - runs * exact) <= 3 * sigma


class TestSerialization:
    def test_roundtrip_random_proofs(self, toy_group):
        params = FischlinParams(k=3, l=4, N=20, T=20)
        proto = Schnorr(toy_group, 20)
        rng = random.Random(31)
        for _ in range(1000):
            proof = Proof(
                tuple(pow(4, rng.randrange(509), 1019) for _ in range(3)),
                tuple(rng.randrange(20) for _ in range(3)),
                tuple(rng.randrange(509) for _ in range(3)))
            blob = serialize_proof(params, proto, proof)
            assert deserialize_proof(params, proto, blob) == proof

    def test_proof_size_formula(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 9)
        proof = prove(params, proto, inst, wit, oracle, rng)
        blob = serialize_proof(params, proto, proof)
        expect = 16  # magic + three u32 header words
        for a, z in zip(proof.a_vec, proof.z_vec):
            expect += 2 + len(proto.encode_commitment(a))
            expect += 4
            expect += 2 + len(proto.encode_response(z))
        assert len(blob) == expect

    def test_truncation_detected(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 10)
        blob = serialize_proof(params, proto,
                               prove(params, proto, inst, wit, oracle, rng))
        for cut in (3, 10, len(blob) - 1):
            with pytest.raises(ValueError):
                deserialize_proof(params, proto, blob[:cut])

    def test_bad_magic_detected(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)
        with pytest.raises(ValueError):
            deserialize_proof(params, proto, b"NOPE" + bytes(12))

    def test_trailing_bytes_detected(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 15)
        blob = serialize_proof(params, proto,
                               prove(params, proto, inst, wit, oracle, rng))
        with pytest.raises(ValueError):
            deserialize_proof(params, proto, blob + b"\x00")

    def test_out_of_range_challenge_detected(self, toy_group):
        params = FischlinParams(k=1, l=2, N=4, T=4)
        proto = Schnorr(toy_group, 4)
        proof = Proof((64,), (3,), (17,))
        blob = bytearray(serialize_proof(params, proto, proof))
        # challenge u32 sits after header + 2-byte length + 1-byte element
        blob[16 + 2 + 1 + 3] = 200
        with pytest.raises(ValueError):
            deserialize_proof(params, proto, bytes(blob))

    def test_peek_params(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 12)
        blob = serialize_proof(params, proto,
                               prove(params, proto, inst, wit, oracle, rng))
        assert peek_params(blob) == (2, 2, 16)

    def test_cut_header_rejected(self, toy_group):
        # every cut below the 16-byte header: magic, u32 k, u32 l, u32 N
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 12)
        blob = serialize_proof(params, proto,
                               prove(params, proto, inst, wit, oracle, rng))
        for cut in range(16):
            want = "bad magic" if cut < 4 else "truncated header"
            for read in (peek_params, functools.partial(deserialize_proof, params, proto)):
                with pytest.raises(ValueError, match=f"^{want}$"):
                    read(blob[:cut])

    def test_json_roundtrip(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 13)
        proof = prove(params, proto, inst, wit, oracle, rng)
        assert proof_from_json(params, proto, proof_to_json(params, proto, proof)) == proof

    def test_repeated_protocol_roundtrip(self, toy_group):
        # N = 768 needs two Schnorr copies on the toy group
        params = FischlinParams.explicit(8, 6, 4)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 14)
        assert proto.copies == 2
        proof = prove(params, proto, inst, wit, oracle, rng)
        blob = serialize_proof(params, proto, proof)
        assert deserialize_proof(params, proto, blob) == proof
        assert verify(params, proto, inst, proof, oracle)

    @pytest.mark.parametrize("a", [(4, 16, 64), (4,)], ids=["three", "one"])
    def test_repeated_protocol_part_count_enforced(self, toy_group, a):
        # the two-copy protocol's commitments and responses pack exactly two
        # elements; any other count is malformed, not an invalid proof
        params = FischlinParams(k=2, l=2, N=600, T=600)
        proto = protocol_for_challenge_space(toy_group, 600)
        good = Proof(((4, 16), (4, 16)), (0, 0), ((1, 2), (3, 4)))
        assert deserialize_proof(params, proto,
                                 serialize_proof(params, proto, good)) == good
        for bad in (Proof((a, (4, 16)), (0, 0), ((1, 2), (3, 4))),
                    Proof(((4, 16), (4, 16)), (0, 0), (a, (3, 4)))):
            with pytest.raises(ValueError):
                deserialize_proof(params, proto, serialize_proof(params, proto, bad))


class TestCommitmentFields:
    """``verify`` encodes a proof's commitment prefix once per oracle,
    whether the blob holds each commitment canonically or not."""

    def blobs(self, toy_group):
        """(params, protocol, instance, proof, blob, the blob with a 00
        byte before the first commitment's first element)."""
        params = FischlinParams.explicit(8, 6, 4)
        proto, rng, inst, wit, oracle = make_run(toy_group, params, 2)
        assert proto.copies == 2
        proof = prove(params, proto, inst, wit, oracle, rng)
        blob = serialize_proof(params, proto, proof)
        outer, inner = (int.from_bytes(blob[at:at + 2], "big") for at in (16, 18))
        padded = blob[:16] + (outer + 1).to_bytes(2, "big") + \
            (inner + 1).to_bytes(2, "big") + b"\0" + blob[20:]
        return params, proto, inst, proof, blob, padded

    def test_verify_encodes_only_a_padded_vector(self, toy_group, monkeypatch):
        params, proto, inst, proof, blob, padded = self.blobs(toy_group)
        calls = []
        encode_prefix = oracle_mod._encode_prefix
        monkeypatch.setattr(oracle_mod, "_encode_prefix",
                            lambda *a: calls.append(a) or encode_prefix(*a))
        for data in (blob, padded):
            assert deserialize_proof(params, proto, data) == proof
            calls.clear()
            for cls in (HashingOracle, RecordingOracle):
                oracle = cls(params, proto, derive_seed(2))
                assert verify(params, proto, inst, deserialize_proof(params, proto, data), oracle)
            assert len(calls) == 2


FUZZ_GROUP = GroupParams(1019, 509, 4)
# Schnorr at N = 16, and N = 600 > 509: the two-copy RepeatedSigma
FUZZ_PROTOCOLS = [(Schnorr(FUZZ_GROUP, 16), 16),
                  (protocol_for_challenge_space(FUZZ_GROUP, 600), 600)]


@st.composite
def parser_cases(draw):
    """(parser, blob, mutation, value): a valid proof or oracle key for a
    random k, then cut, byte-flipped, extended, replaced by random bytes
    (after the header or whole) or left as is."""
    protocol, n = draw(st.sampled_from(FUZZ_PROTOCOLS))
    k = draw(st.integers(1, 3))
    params = FischlinParams(k=k, l=4, N=n, T=n)
    element, scalar = st.integers(0, 1018), st.integers(0, 508)
    if isinstance(protocol, RepeatedSigma):
        element, scalar = st.tuples(element, element), st.tuples(scalar, scalar)
    a_vec = tuple(draw(st.lists(element, min_size=k, max_size=k)))
    if draw(st.booleans()):
        value = Proof(a_vec, tuple(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                                 max_size=k))),
                      tuple(draw(st.lists(scalar, min_size=k, max_size=k))))
        blob, header = serialize_proof(params, protocol, value), 16
        parse = functools.partial(deserialize_proof, params, protocol)
    else:
        value = OracleInput(a_vec, draw(st.integers(1, k)), draw(st.integers(0, n - 1)),
                            draw(scalar))
        blob, header = encode_input(params, protocol, value), 12
        parse = functools.partial(decode_input, params, protocol)
    mutation = draw(st.sampled_from(["none", "cut", "flip", "extend", "body", "random"]))
    if mutation == "cut":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif mutation == "flip":
        pos = draw(st.integers(0, len(blob) - 1))
        blob = blob[:pos] + bytes([blob[pos] ^ draw(st.integers(1, 255))]) + blob[pos + 1:]
    elif mutation == "extend":
        blob += draw(st.binary(min_size=1, max_size=8))
    elif mutation == "body":
        blob = blob[:header] + draw(st.binary(max_size=64))
    elif mutation == "random":
        blob = draw(st.binary(max_size=64))
    return parse, blob, mutation, value


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(parser_cases())
    def test_returns_or_raises_value_error(self, case):
        """deserialize_proof and decode_input either return or raise
        ValueError; valid blobs round-trip, and cut or extended ones are
        rejected."""
        parse, blob, mutation, value = case
        try:
            got = parse(blob)
        except ValueError:
            assert mutation != "none"
            return
        assert mutation not in ("cut", "extend")
        if mutation == "none":
            assert got == value



@st.composite
def proof_cases(draw):
    """(params, protocol, proof): a proof of random elements for Schnorr or
    the two-copy RepeatedSigma, valid as a blob though not as a proof."""
    protocol, n = draw(st.sampled_from(FUZZ_PROTOCOLS))
    k = draw(st.integers(1, 4))
    element, scalar = st.integers(0, 1018), st.integers(0, 508)
    if isinstance(protocol, RepeatedSigma):
        element, scalar = st.tuples(element, element), st.tuples(scalar, scalar)
    vector = functools.partial(st.lists, min_size=k, max_size=k)
    return FischlinParams(k=k, l=4, N=n, T=n), protocol, Proof(
        tuple(draw(vector(element))), tuple(draw(vector(st.integers(0, n - 1)))),
        tuple(draw(vector(scalar))))


def read_outcome(parse, params, protocol, blob):
    """What ``parse`` returns on ``blob``, or ValueError if it raises that."""
    try:
        return parse(params, protocol, blob)
    except ValueError:
        return ValueError


READERS = [deserialize_proof, proof_reference.deserialize_proof]


class TestOnePassReader:
    """``deserialize_proof`` against the bounded reader it replaced
    (``tests/proof_reference.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(proof_cases(), st.binary(min_size=1, max_size=4))
    def test_valid_cut_and_extended(self, case, extra):
        params, protocol, proof = case
        blob = serialize_proof(params, protocol, proof)
        for parse in READERS:
            assert parse(params, protocol, blob) == proof
            for cut in range(len(blob)):
                assert read_outcome(parse, params, protocol, blob[:cut]) is ValueError
            assert read_outcome(parse, params, protocol, blob + extra) is ValueError

    @settings(max_examples=100, deadline=None)
    @given(proof_cases(), st.data())
    def test_challenge_out_of_range(self, case, data):
        params, protocol, proof = case
        j = data.draw(st.integers(0, params.k - 1))
        c_vec = list(proof.c_vec)
        c_vec[j] = data.draw(st.integers(params.N, (1 << 32) - 1))
        blob = serialize_proof(params, protocol, Proof(proof.a_vec, tuple(c_vec), proof.z_vec))
        for parse in READERS:
            assert read_outcome(parse, params, protocol, blob) is ValueError

    @settings(max_examples=300, deadline=None)
    @given(proof_cases(), st.data())
    def test_same_outcome_on_changed_bytes(self, case, data):
        """A blob with bytes after the header flipped or replaced reads to
        the same proof with either reader, or is rejected by both."""
        params, protocol, proof = case
        blob = bytearray(serialize_proof(params, protocol, proof))
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(16, len(blob) - 1))
            blob[pos] ^= data.draw(st.integers(1, 255))
        outcomes = [read_outcome(parse, params, protocol, bytes(blob)) for parse in READERS]
        assert outcomes[0] == outcomes[1]


# Reference: the prover as it was before it ground through
# ``RecordingOracle.grind``, one ``query`` of an ``OracleInput`` per attempt.
# Its responses come from ``respond``, whose packed encodings the walk tests
# in test_sigma.py show the protocols' ``response_fields`` walks equal.

def reference_prove(params, protocol, instance, witness, oracle, rng):
    k = params.k
    pairs = [protocol.commit(instance, rng) for _ in range(k)]
    a_vec = tuple(p[0] for p in pairs)
    c_vec, z_vec = [], []
    for i in range(1, k + 1):
        for c in range(params.T):
            z = protocol.respond(pairs[i - 1][1], witness, c)
            if oracle.query(OracleInput(a_vec, i, c, z)) == 0:
                c_vec.append(c)
                z_vec.append(z)
                break
        else:
            raise Abort(f"repetition {i}: no zero hash within {params.T} attempts")
    return Proof(a_vec, tuple(c_vec), tuple(z_vec))


PROVE_INSTANCE = (SigmaInstance(FUZZ_GROUP, 80), SigmaWitness(7))


@st.composite
def prove_cases(draw):
    """(params, protocol, seed, oracle kind): Schnorr or a 2- or 3-copy
    RepeatedSigma over a small base space, random k, l, N and T (often
    small enough to abort), and an oracle that is plain, holds a reprogram
    table over the proof's own points, or has a programmer installed."""
    copies = draw(st.sampled_from([1, 2, 3]))
    if copies == 1:
        n = draw(st.integers(2, 40))
        protocol = Schnorr(FUZZ_GROUP, n)
    else:
        base = draw(st.sampled_from([2, 3, 5]))
        n = draw(st.integers(2, base ** copies))
        protocol = RepeatedSigma(Schnorr(FUZZ_GROUP, base), copies, n)
    t = draw(st.one_of(st.just(n), st.integers(1, n)))
    params = FischlinParams(k=draw(st.integers(1, 4)), l=draw(st.integers(1, 4)), N=n, T=t)
    return params, protocol, draw(st.integers(0, 2 ** 32)), \
        draw(st.sampled_from(["plain", "table", "programmer"]))


def prove_twice(prover, params, protocol, seed, kind):
    """Two proofs (or Abort messages) from the same rng seed on one oracle,
    so the second is answered from the transcript, then the transcript's
    vector numbers and answer maps (in record order), and the table."""
    inst, wit = PROVE_INSTANCE
    oracle = RecordingOracle(params, protocol, derive_seed(seed))
    if kind == "table":
        rng = random.Random(seed)
        states = [protocol.commit(inst, rng)[1] for _ in range(params.k)]
        a_vec = tuple(state.a for state in states)
        points = {(n % params.k + 1, rng.randrange(params.N)): rng.randrange(1 << params.l)
                  for n in range(2 * params.k)}
        for (i, c), y in points.items():
            oracle.reprogram(OracleInput(a_vec, i, c, protocol.respond(states[i - 1], wit, c)), y)
    elif kind == "programmer":
        oracle.programmer = lambda inp: None if inp.c % 3 else (inp.i + inp.c) % (1 << params.l)
    out = []
    for _ in range(2):
        try:
            out.append(prover(params, protocol, inst, wit, oracle, random.Random(seed)))
        except Abort as exc:
            out.append(str(exc))
    ts = oracle.transcript
    assert len(ts) == sum(len(v.answers) for v in ts.vectors)
    return out, (ts.vids, [list(v.answers.items()) for v in ts.vectors],
                 oracle.table.overrides)


class TestProverMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(prove_cases())
    def test_same_proofs_and_transcript(self, case):
        """prove gives the reference's proofs, or both abort with the same
        message, and leaves the same transcript and table; the
        second prove on the same oracle repeats the first."""
        params, protocol, seed, kind = case
        got = prove_twice(prove, params, protocol, seed, kind)
        assert got == prove_twice(reference_prove, params, protocol, seed, kind)
        assert got[0][0] == got[0][1]
        # each step of the walk the prover took is respond, packed
        inst, wit = PROVE_INSTANCE
        state = protocol.commit(inst, random.Random(seed))[1]
        for c, field in enumerate(protocol.response_fields(state, wit)):
            assert field == pack_field(protocol.encode_response(protocol.respond(state, wit, c)))


# The oracle ``prove`` and ``verify`` get without a transcript: a
# ``HashingOracle`` must answer exactly as a fresh ``RecordingOracle`` does.

@st.composite
def oracle_pair_cases(draw):
    """(params, protocol, seed, table points): Schnorr or the two-copy
    RepeatedSigma, k 1-4, l 1-6 and an attempt cap T that is often below
    N, so that repetitions abort; the table points are (i, c, y) triples."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        protocol = Schnorr(FUZZ_GROUP, n)
    else:
        base = draw(st.sampled_from([2, 3, 5, 7]))
        n = draw(st.integers(2, base * base))
        protocol = RepeatedSigma(Schnorr(FUZZ_GROUP, base), 2, n)
    t = draw(st.one_of(st.just(n), st.integers(1, n)))
    params = FischlinParams(k=draw(st.integers(1, 4)), l=draw(st.integers(1, 6)), N=n, T=t)
    points = draw(st.lists(st.tuples(st.integers(1, params.k), st.integers(0, n - 1),
                                     st.integers(0, (1 << params.l) - 1)), max_size=6))
    return params, protocol, draw(st.integers(0, 2 ** 32)), points


def own_query(params, protocol, seed, i, c):
    """The prover's query at repetition i and challenge c, for the
    commitments ``prove`` draws from ``random.Random(seed)``."""
    inst, wit = PROVE_INSTANCE
    rng = random.Random(seed)
    states = [protocol.commit(inst, rng)[1] for _ in range(params.k)]
    return OracleInput(tuple(state.a for state in states), i, c,
                       protocol.respond(states[i - 1], wit, c))


def table_on(params, protocol, seed, points) -> dict:
    """Overrides programming each (i, c, y) of ``points`` (the first value
    for each (i, c) wins) on the prover's own query there."""
    scratch = RecordingOracle(params, protocol, derive_seed(seed))
    for (i, c), y in {(i, c): y for i, c, y in reversed(points)}.items():
        scratch.reprogram(own_query(params, protocol, seed, i, c), y)
    return scratch.table.overrides


def prove_on(oracle, params, protocol, seed):
    """``prove``'s proof on the oracle, or its Abort message."""
    inst, wit = PROVE_INSTANCE
    try:
        return prove(params, protocol, inst, wit, oracle, random.Random(seed))
    except Abort as exc:
        return str(exc)


def oracle_pair(params, protocol, seed, overrides=None):
    """A hashing and a recording oracle on one seed, each with its own copy
    of the table ``overrides``."""
    return [cls(params, protocol, derive_seed(seed), table=ReprogramTable(dict(overrides or {})))
            for cls in (HashingOracle, RecordingOracle)]


class TestHashingMatchesRecording:
    @settings(max_examples=300, deadline=None)
    @given(oracle_pair_cases())
    def test_same_proofs_counts_and_verdicts(self, case):
        """Both oracles give the same proof, or the same Abort; the hashing
        oracle counts as many attempts as the recording one records
        queries; and both verify alike, with no table and with tables that
        flip the verdict either way."""
        params, protocol, seed, points = case
        inst, _ = PROVE_INSTANCE
        hashing, recording = oracle_pair(params, protocol, seed)
        proof = prove_on(hashing, params, protocol, seed)
        assert proof == prove_on(recording, params, protocol, seed)
        assert hashing.attempts == len(recording.transcript) == recording.attempts
        assert len(recording.transcript) == sum(
            len(v.answers) for v in recording.transcript.vectors)
        if isinstance(proof, str):
            return
        assert hashing.attempts == sum(proof.c_vec) + params.k
        # (proof, table points, verdict or None when only the oracles must
        # agree): repetition i's point answered with 1 rejects; moved to a
        # challenge whose point hashes to nonzero it rejects, unless the
        # table answers that point with 0
        i = points[0][0] if points else 1
        cases = [(proof, [], True), (proof, [(i, proof.c_vec[i - 1], 1)], False),
                 (proof, points, None)]
        for c in range(params.N):
            moved = own_query(params, protocol, seed, i, c)
            if hashing.query(moved) != 0:
                moved_proof = Proof(proof.a_vec, proof.c_vec[:i - 1] + (c,) + proof.c_vec[i:],
                                    proof.z_vec[:i - 1] + (moved.z,) + proof.z_vec[i:])
                cases += [(moved_proof, [], False), (moved_proof, [(i, c, 0)], True)]
                break
        for shown, table_points, expected in cases:
            overrides = table_on(params, protocol, seed, table_points)
            verdicts = [verify(params, protocol, inst, shown, oracle)
                        for oracle in oracle_pair(params, protocol, seed, overrides)]
            assert verdicts[0] == verdicts[1]
            assert expected is None or verdicts[0] is expected

    @settings(max_examples=300, deadline=None)
    @given(oracle_pair_cases())
    def test_grind_honours_a_table(self, case):
        """With a table over the prover's own points, the hashing oracle's
        grind answers each attempt from it, as the recording oracle does."""
        params, protocol, seed, points = case
        overrides = table_on(params, protocol, seed, points)
        hashing, recording = oracle_pair(params, protocol, seed, overrides)
        proof = prove_on(hashing, params, protocol, seed)
        assert proof == prove_on(recording, params, protocol, seed)
        assert hashing.attempts == len(recording.transcript)

    def test_grind_follows_the_table(self):
        # the table answers repetition 1's zero with 1 and repetition 2's
        # first attempt with 0: both oracles grind past the first and stop
        # at the second
        params = FischlinParams(k=2, l=2, N=40, T=40)
        protocol = Schnorr(FUZZ_GROUP, 40)
        plain = prove_on(HashingOracle(params, protocol, derive_seed(3)), params, protocol, 3)
        assert plain.c_vec[1] > 0
        overrides = table_on(params, protocol, 3, [(1, plain.c_vec[0], 1), (2, 0, 0)])
        for oracle in oracle_pair(params, protocol, 3, overrides):
            proof = prove_on(oracle, params, protocol, 3)
            assert proof.c_vec[0] > plain.c_vec[0] and proof.c_vec[1] == 0
            assert oracle.attempts == proof.c_vec[0] + 2

    def test_abort_at_the_same_repetition(self):
        # T = 2 at l = 6 aborts most proofs; both oracles abort in the
        # same repetition, after the same number of attempts
        params = FischlinParams(k=4, l=6, N=40, T=2)
        protocol = Schnorr(FUZZ_GROUP, 40)
        aborts = 0
        for seed in range(20):
            hashing, recording = oracle_pair(params, protocol, seed)
            got = prove_on(hashing, params, protocol, seed)
            assert got == prove_on(recording, params, protocol, seed)
            assert hashing.attempts == len(recording.transcript)
            aborts += isinstance(got, str)
        assert aborts >= 15

    def test_hashing_oracle_keeps_nothing_per_attempt(self, toy_group):
        # a k=64, l=8 proof grinds about 16,000 attempts; what stays
        # allocated after it is under 6 B per attempt, where a recording
        # oracle keeps about 135
        params = FischlinParams.explicit(64, 8, 2)
        proto, rng, inst, wit, _ = make_run(toy_group, params, 5)
        oracle = HashingOracle(params, proto, derive_seed(5))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prove(params, proto, inst, wit, oracle, rng)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert oracle.attempts > 10_000
        assert kept < 100_000
