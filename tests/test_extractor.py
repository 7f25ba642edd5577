import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischlin.extractor import (
    ExtractionOutcome,
    Status,
    attempts_per_repetition,
    extract,
    run_online_experiment,
)
from fischlin.oracle import OracleInput, OracleTranscript, RecordingOracle, \
    derive_seed, encode_input
from fischlin.sigma import GroupParams, Schnorr, SigmaInstance, SigmaWitness, keygen, \
    protocol_for_challenge_space
from fischlin.transform import FischlinParams, Proof, prove
from transcript_entries import entries


def transcript_of(params, proto, inputs, seed=1):
    oracle = RecordingOracle(params, proto, derive_seed(seed))
    for inp in inputs:
        oracle.query(inp)
    return oracle.transcript


# Reference: the extractor as it was before the single sorted pass. It
# verifies every entry, then searches the proof's vector pairwise and falls
# back to every other vector in turn.

def _first_pair(entries):
    """Lexicographically first pair (by encoded-input order) of distinct
    entries sharing the repetition index. Entries must be pre-sorted."""
    for j, u in enumerate(entries):
        for v in entries[j + 1:]:
            if u.inp.i == v.inp.i:
                return u, v
    return None


def _scan(protocol, instance, entries):
    """Resolve the outcome over a sorted list of sigma-valid entries."""
    hit = _first_pair(entries)
    if hit is None:
        return ExtractionOutcome(Status.NO_PAIR_FOUND)
    u, v = hit
    if u.inp.c == v.inp.c:
        return ExtractionOutcome(
            Status.UNIQUE_RESPONSE_VIOLATION, pair=(u.inp, v.inp),
            details=f"two valid responses for repetition {u.inp.i}, "
                    f"challenge {u.inp.c}")
    w = protocol.extract(instance, u.inp.a_vec[u.inp.i - 1],
                         u.inp.c, u.inp.z, v.inp.c, v.inp.z)
    return ExtractionOutcome(Status.EXTRACTED, witness=w, pair=(u.inp, v.inp))


def reference_extract(params, protocol, instance, proof, transcript):
    valid = [e for e in entries(transcript)
             if protocol.verify(instance, e.inp.a_vec[e.inp.i - 1], e.inp.c, e.inp.z)]
    valid.sort(key=lambda e: (e.prefix, e.tail))
    prefixed = [e for e in valid if e.inp.a_vec == proof.a_vec]
    outcome = _scan(protocol, instance, prefixed)
    if outcome.status is not Status.NO_PAIR_FOUND:
        return outcome
    fallback = [e for e in valid if e.inp.a_vec != proof.a_vec]
    by_avec: dict = {}
    for e in fallback:
        by_avec.setdefault(e.inp.a_vec, []).append(e)
    for group in by_avec.values():
        outcome = _scan(protocol, instance, group)
        if outcome.status is not Status.NO_PAIR_FOUND:
            return outcome
    return ExtractionOutcome(Status.NO_PAIR_FOUND)


class Lenient(Schnorr):
    """Defective Schnorr that also accepts z + 1, so two distinct responses
    can be valid for one challenge."""

    def verify(self, instance, a, c, z):
        return super().verify(instance, a, c, z) or \
            super().verify(instance, a, c, (z - 1) % self.group.q)


TOY = GroupParams(1019, 509, 4)
# name -> (protocol, N); N = 600 exceeds the 509 base challenges, so the
# two-copy RepeatedSigma is used
PROTOCOLS = {
    "schnorr-4": (Schnorr(TOY, 4), 4),
    "schnorr-16": (Schnorr(TOY, 16), 16),
    "repeated-600": (protocol_for_challenge_space(TOY, 600), 600),
    "lenient-4": (Lenient(TOY, 4), 4),
}


def _shift(z, by):
    """The response with its first coordinate moved by ``by`` mod q."""
    if isinstance(z, tuple):
        return ((z[0] + by) % TOY.q,) + z[1:]
    return (z + by) % TOY.q


@st.composite
def scenarios(draw):
    """(params, protocol, instance, proof, transcript) over 1-3 commitment
    vectors.

    Each query is valid, invalid (z + 2), or shifted (z + 1: invalid for an
    honest protocol, valid for ``Lenient``), so one challenge can carry
    distinct responses. The proof's vector is one of the recorded vectors
    or a fresh one with no entries.
    """
    proto, n = PROTOCOLS[draw(st.sampled_from(sorted(PROTOCOLS)))]
    k = draw(st.integers(1, 3))
    vectors = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    params = FischlinParams(k=k, l=2, N=n, T=n)
    inst, wit = SigmaInstance(TOY, 80), SigmaWitness(7)
    commits = [[proto.commit(inst, rng) for _ in range(k)] for _ in range(vectors + 1)]
    a_vecs = [tuple(a for a, _ in vec) for vec in commits]
    queries = draw(st.lists(st.tuples(
        st.integers(0, vectors - 1), st.integers(1, k),
        st.integers(0, n - 1), st.sampled_from([0, 0, 1, 2])), max_size=24))
    inputs = []
    for v, i, c, shift in queries:
        z = proto.respond(commits[v][i - 1][1], wit, c)
        inputs.append(OracleInput(a_vecs[v], i, c, _shift(z, shift)))
    own = a_vecs[draw(st.integers(0, vectors))]
    proof = Proof(own, (0,) * k, (0,) * k)
    return params, proto, inst, proof, transcript_of(params, proto, inputs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # Lenient pairs can fail special soundness
        return repr(exc)


class TestExtract:
    def test_hand_built_pair(self, toy_group):
        # the two canonical transcripts for x = 80 share (a, i) and differ
        # in challenge, so extraction returns the planted witness 7
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        ts = transcript_of(params, proto, [
            OracleInput((64,), 1, 2, 17),
            OracleInput((64,), 1, 5, 38),
        ])
        proof = Proof((64,), (2,), (17,))
        out = extract(params, proto, inst, proof, ts)
        assert out.status is Status.EXTRACTED
        assert out.witness.w == 7
        assert {e.c for e in out.pair} == {2, 5}

    def test_empty_transcript(self, toy_group):
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        out = extract(params, proto, inst, Proof((64,), (2,), (17,)),
                      OracleTranscript())
        assert out.status is Status.NO_PAIR_FOUND

    def test_invalid_entries_filtered(self, toy_group):
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        ts = transcript_of(params, proto, [
            OracleInput((64,), 1, 2, 17),
            OracleInput((64,), 1, 5, 39),   # invalid response
            OracleInput((64,), 1, 3, 100),  # invalid response
        ])
        out = extract(params, proto, inst, Proof((64,), (2,), (17,)), ts)
        assert out.status is Status.NO_PAIR_FOUND

    def test_determinism(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)
        rng = random.Random(5)
        inst, wit = keygen(toy_group, rng)
        oracle = RecordingOracle(params, proto, derive_seed(5))
        proof = prove(params, proto, inst, wit, oracle, rng)
        one = extract(params, proto, inst, proof, oracle.transcript)
        two = extract(params, proto, inst, proof, oracle.transcript)
        assert one == two

    def test_lexicographic_tie_break(self, toy_group):
        # with three valid entries for one repetition, the pair made of
        # the two smallest encodings wins
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        entries = [OracleInput((64,), 1, c, (3 + c * 7) % 509)
                   for c in (5, 2, 9)]
        ts = transcript_of(params, proto, entries)
        out = extract(params, proto, inst, Proof((64,), (2,), (17,)), ts)
        keys = sorted(encode_input(params, proto, e) for e in entries)
        got = sorted(encode_input(params, proto, e) for e in out.pair)
        assert got == keys[:2]

    def test_unique_response_violation_surfaced(self, toy_group):
        # a defective protocol that accepts everything makes two distinct
        # responses valid for one (i, c): the sentinel must fire
        class AcceptAll(Schnorr):
            def verify(self, instance, a, c, z):
                return True

        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = AcceptAll(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        ts = transcript_of(params, proto, [
            OracleInput((64,), 1, 2, 17),
            OracleInput((64,), 1, 2, 18),
        ])
        out = extract(params, proto, inst, Proof((64,), (2,), (17,)), ts)
        assert out.status is Status.UNIQUE_RESPONSE_VIOLATION
        assert "challenge 2" in out.details

    def test_global_scan_fallback(self, toy_group):
        # no pair under the proof's commitment vector, but another
        # recorded vector holds one: the fallback still extracts
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        other_a = pow(4, 3, 1019)
        ts = transcript_of(params, proto, [
            OracleInput((other_a,), 1, 2, (3 + 2 * 7) % 509),
            OracleInput((other_a,), 1, 5, (3 + 5 * 7) % 509),
        ])
        proof_a = pow(4, 9, 1019)
        proof = Proof((proof_a,), (2,), ((9 + 2 * 7) % 509,))
        out = extract(params, proto, inst, proof, ts)
        assert out.status is Status.EXTRACTED
        assert out.witness.w == 7

    def test_outcome_json(self, toy_group):
        params = FischlinParams(k=1, l=2, N=16, T=16)
        proto = Schnorr(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        ts = transcript_of(params, proto, [
            OracleInput((64,), 1, 2, 17),
            OracleInput((64,), 1, 5, 38),
        ])
        out = extract(params, proto, inst, Proof((64,), (2,), (17,)), ts)
        assert out.to_json() == {"status": "Extracted", "w": "7"}

    @settings(max_examples=400, deadline=None)
    @given(scenarios())
    def test_matches_reference(self, scenario):
        assert _outcome(extract, *scenario) == _outcome(reference_extract, *scenario)

    def test_verifies_lazily(self, toy_group):
        # one call per repetition before the first with two attempts, two for
        # that pair and two inside protocol.extract: at most k + 3, where
        # verifying every entry would cost about k * 2^l
        params = FischlinParams(k=16, l=6, N=509, T=509)  # all of Schnorr's challenges
        proto = protocol_for_challenge_space(toy_group, params.N)
        assert type(proto) is Schnorr
        rng = random.Random(3)
        inst, wit = keygen(toy_group, rng)
        oracle = RecordingOracle(params, proto, derive_seed(3))
        proof = prove(params, proto, inst, wit, oracle, rng)
        calls = []
        plain = proto.verify
        proto.verify = lambda *a: calls.append(a) or plain(*a)
        out = extract(params, proto, inst, proof, oracle.transcript)
        assert out.status is Status.EXTRACTED and out.witness == wit
        attempts = attempts_per_repetition(proof, oracle.transcript)
        first = next(j for j, n in enumerate(attempts) if n >= 2)
        assert len(calls) == first + 4 <= params.k + 3


class TestOnlineExperiment:
    def make_prover(self, group, params, proto, seed):
        rng = random.Random(seed)
        inst, wit = keygen(group, rng)

        def prover(oracle):
            return inst, prove(params, proto, inst, wit, oracle, rng)

        return prover, wit

    def test_honest_prover_extracts(self, toy_group):
        params = FischlinParams(k=4, l=2, N=32, T=32)
        proto = Schnorr(toy_group, 32)
        hits = 0
        for seed in range(100):
            prover, wit = self.make_prover(toy_group, params, proto, seed)
            res = run_online_experiment(params, proto, prover, derive_seed(seed))
            assert res.verdict
            attempts = attempts_per_repetition(res.proof, res.transcript)
            if max(attempts) >= 2:
                assert res.outcome.status is Status.EXTRACTED
                assert res.outcome.witness == wit
                hits += 1
            else:
                assert res.outcome.status is Status.NO_PAIR_FOUND
        assert hits >= 90  # all-first-try probability is (1/4)^4

    def test_extraction_soundness_asserted(self, toy_group):
        params = FischlinParams(k=4, l=2, N=32, T=32)
        proto = Schnorr(toy_group, 32)
        for seed in range(40):
            prover, _ = self.make_prover(toy_group, params, proto, seed)
            res = run_online_experiment(params, proto, prover, derive_seed(seed))
            if res.outcome and res.outcome.status is Status.EXTRACTED:
                inst = res.instance
                assert pow(inst.group.g, res.outcome.witness.w,
                           inst.group.p) == inst.x

    def test_no_violation_for_schnorr(self, toy_group):
        params = FischlinParams(k=4, l=2, N=32, T=32)
        proto = Schnorr(toy_group, 32)
        for seed in range(100):
            prover, _ = self.make_prover(toy_group, params, proto, seed)
            res = run_online_experiment(params, proto, prover, derive_seed(seed))
            if res.outcome is not None:
                assert res.outcome.status is not Status.UNIQUE_RESPONSE_VIOLATION

    def test_replaying_prover_defeats_transcript_extraction(self, toy_group):
        # a prover that replays a cached valid proof makes no grinding
        # queries; the verifier's own k single-challenge queries are all
        # the extractor sees, so no pair exists
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)
        rng = random.Random(77)
        inst, wit = keygen(toy_group, rng)
        warmup = RecordingOracle(params, proto, derive_seed(77))
        cached = prove(params, proto, inst, wit, warmup, rng)

        res = run_online_experiment(params, proto,
                                    lambda oracle: (inst, cached),
                                    derive_seed(77))
        assert res.verdict
        assert len(res.transcript) == params.k
        assert res.outcome.status is Status.NO_PAIR_FOUND

    def test_garbage_prover_skips_extraction(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)
        inst = SigmaInstance(toy_group, 80)
        garbage = Proof((1, 2), (0, 0), (0, 0))
        res = run_online_experiment(params, proto,
                                    lambda oracle: (inst, garbage),
                                    derive_seed(8))
        assert not res.verdict
        assert res.outcome is None

    def test_prover_exceptions_propagate(self, toy_group):
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)

        def bad_prover(oracle):
            raise RuntimeError("prover broke")

        with pytest.raises(RuntimeError, match="prover broke"):
            run_online_experiment(params, proto, bad_prover, derive_seed(9))

    def test_verifier_queries_recorded_alongside(self, toy_group):
        # q' = q + k: the experiment transcript holds prover queries plus
        # the verifier's k (deduplicated against repeats)
        params = FischlinParams(k=2, l=2, N=16, T=16)
        proto = protocol_for_challenge_space(toy_group, 16)
        prover, _ = self.make_prover(toy_group, params, proto, 13)
        res = run_online_experiment(params, proto, prover, derive_seed(13))
        prover_queries = sum(attempts_per_repetition(res.proof, res.transcript))
        # verifier re-queries the k accepted points, which are already
        # logged, so the transcript length equals the prover's count
        assert len(res.transcript) == prover_queries
