import math
import random
import statistics
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from fischlin.oracle import OracleInput, RecordingOracle, ReprogramConflict, \
    _encode_prefix, derive_seed
from fischlin.sigma import Schnorr, SigmaInstance, keygen, \
    protocol_for_challenge_space
from fischlin.simulator import (
    TildeFunction,
    first_zero_challenge,
    hybrid_experiment,
    reprogramming_advantage,
    simulate,
)
from fischlin.transform import Abort, FischlinParams, completeness_error, verify
from transcript_entries import decode_input

PARAMS = FischlinParams(k=2, l=2, N=16, T=16)


def fresh(toy_group, seed, params=PARAMS):
    proto = protocol_for_challenge_space(toy_group, params.N)
    oracle = RecordingOracle(params, proto, derive_seed(seed))
    return proto, oracle


class TestSimulate:
    def test_simulated_proof_verifies(self, toy_group):
        inst = SigmaInstance(toy_group, 80)
        for seed in range(50):
            proto, oracle = fresh(toy_group, seed)
            try:
                out = simulate(PARAMS, proto, inst, oracle, random.Random(seed))
            except Abort:
                continue
            assert verify(PARAMS, proto, inst, out.proof, oracle)

    def test_abort_frequency_single_row(self, toy_group):
        # k=1, l=4, N=8: a row has no zero cell with probability (15/16)^8
        params = FischlinParams(k=1, l=4, N=8, T=8)
        inst = SigmaInstance(toy_group, 80)
        runs, aborts = 3000, 0
        for seed in range(runs):
            proto, oracle = fresh(toy_group, seed, params)
            try:
                simulate(params, proto, inst, oracle, random.Random(seed))
            except Abort:
                aborts += 1
        p = (1 - 2.0 ** -4) ** 8
        sigma = (runs * p * (1 - p)) ** 0.5
        assert abs(aborts - runs * p) <= 3 * sigma

    def test_programming_touches_only_valid_prefixed_points(self, toy_group):
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 5)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(5))
        for prefix, tail in oracle.table.overrides:
            inp = decode_input(PARAMS, proto, prefix + tail)
            assert inp.a_vec == out.proof.a_vec
            assert proto.verify(inst, inp.a_vec[inp.i - 1], inp.c, inp.z)

    def test_tilde_is_a_function_per_cell(self, toy_group):
        # unique responses make the programmed oracle a function: at most
        # one override per (i, c) cell
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 6)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(6))
        cells = [
            (inp.i, inp.c)
            for inp in (decode_input(PARAMS, proto, prefix + tail)
                        for prefix, tail in oracle.table.overrides)
        ]
        assert len(cells) == len(set(cells))
        for (i, c), y in [((inp.i, inp.c), y) for inp, y in
                          ((decode_input(PARAMS, proto, prefix + tail), v)
                           for (prefix, tail), v in oracle.table.overrides.items())]:
            assert y == out.tilde(i, c)

    def test_proof_points_programmed_to_zero(self, toy_group):
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 7)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(7))
        for i in range(1, PARAMS.k + 1):
            inp = OracleInput(out.proof.a_vec, i, out.proof.c_vec[i - 1],
                              out.proof.z_vec[i - 1])
            prefix = _encode_prefix(PARAMS, proto, inp.a_vec)
            key = oracle.encode(inp)
            assert oracle.table.overrides[(prefix, key[len(prefix):])] == 0
            assert out.tilde(i, out.proof.c_vec[i - 1]) == 0

    def test_distinguisher_queries_materialize_lazily(self, toy_group):
        # someone who can build another valid transcript (here: using the
        # witness) gets the tilde value, and the point lands in the table
        rng = random.Random(8)
        inst, wit = keygen(toy_group, rng)
        proto, oracle = fresh(toy_group, 8)
        out = simulate(PARAMS, proto, inst, oracle, rng)
        i, fresh_c = 1, next(c for c in range(PARAMS.N)
                             if c != out.proof.c_vec[0])
        a_i = out.proof.a_vec[0]
        # forge the unique valid response via the group relation
        z = next(zz for zz in range(509)
                 if proto.verify(inst, a_i, fresh_c, zz))
        before = len(oracle.table.overrides)
        inp = OracleInput(out.proof.a_vec, i, fresh_c, z)
        got = oracle.query(inp)
        assert got == out.tilde(i, fresh_c)
        assert len(oracle.table.overrides) == before + 1
        prefix = _encode_prefix(PARAMS, proto, inp.a_vec)
        assert oracle.table.overrides[(prefix, oracle.encode(inp)[len(prefix):])] == got

    def test_invalid_queries_pass_through(self, toy_group):
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 9)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(9))
        bad = OracleInput(out.proof.a_vec, 1, (out.proof.c_vec[0] + 1) % 16, 0)
        if not proto.verify(inst, bad.a_vec[0], bad.c, bad.z):
            before = len(oracle.table.overrides)
            oracle.query(bad)
            assert len(oracle.table.overrides) == before

    def test_reprogramming_proof_point_again_conflicts(self, toy_group):
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 10)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(10))
        inp = OracleInput(out.proof.a_vec, 1, out.proof.c_vec[0],
                          out.proof.z_vec[0])
        with pytest.raises(ReprogramConflict):
            oracle.reprogram(inp, 1)


class RowHash:
    """Stand-in for a tilde row's SHA-256 state: after ``u32 i`` and
    ``u32 c`` it digests to all zero bytes when c is in ``zeros`` (a zero
    cell at every l) and to all 0xff bytes otherwise."""

    def __init__(self, zeros, data=b""):
        self.zeros, self.data = zeros, data

    def copy(self):
        return RowHash(self.zeros, self.data)

    def update(self, data):
        self.data += data

    def digest(self):
        return bytes(32) if int.from_bytes(self.data[4:8], "big") in self.zeros \
            else b"\xff" * 32


class TestZeroCellSampling:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), l=st.integers(1, 10),
           attempts=st.integers(1, 3000), i=st.integers(1, 2 ** 20))
    def test_matches_reference(self, seed, l, attempts, i):
        """The midstate scan returns the first zero cell of the row that
        ``TildeFunction.__call__`` evaluates, or both abort alike."""
        tilde = TildeFunction(seed, l)
        want = next((c for c in range(attempts) if tilde(i, c) == 0), None)
        if want is None:
            with pytest.raises(Abort) as exc:
                first_zero_challenge(tilde, i, attempts)
            assert str(exc.value) == \
                f"repetition {i}: no zero cell within {attempts} challenges"
        else:
            assert first_zero_challenge(tilde, i, attempts) == want

    def test_law_is_truncated_geometric(self):
        """Over every zero pattern of a row of n <= 4 cells, each cell zero
        with probability p = 2^-l, the challenge law is exactly the
        prover's: P(c) = (1 - p)^c p for c < T, and Abort with (1 - p)^T,
        so the law given no abort is Geom(2^-l) truncated to [0, T)."""
        for l, n in product((1, 2, 3), range(1, 5)):
            p = Fraction(1, 2 ** l)
            for attempts in range(1, n + 1):
                law, aborted = Counter(), Fraction(0)
                for row in product((False, True), repeat=n):
                    weight = Fraction(1)
                    for zero in row:
                        weight *= p if zero else 1 - p
                    tilde = TildeFunction(bytes(32), l)
                    tilde._mid = RowHash({c for c in range(n) if row[c]})
                    try:
                        law[first_zero_challenge(tilde, 1, attempts)] += weight
                    except Abort:
                        aborted += weight
                assert aborted == (1 - p) ** attempts
                assert {c: w / (1 - aborted) for c, w in law.items()} == {
                    c: (1 - p) ** c * p / (1 - (1 - p) ** attempts)
                    for c in range(attempts)}

    def test_abort_when_row_has_no_zero(self):
        for seed in range(200):
            tilde = TildeFunction(bytes([seed]) * 32, 6)
            if all(tilde(1, c) != 0 for c in range(4)):
                with pytest.raises(Abort, match="no zero cell within 4 challenges"):
                    first_zero_challenge(tilde, 1, 4)
                return
        pytest.fail("no zero-free row found in 200 seeds")


class TestReprogrammingAdvantage:
    def test_zero_queries(self):
        assert reprogramming_advantage(0, [0.5, 0.25]) == 0.0

    def test_single_round_value(self):
        got = reprogramming_advantage(100, [2.0 ** -20])
        assert got == pytest.approx(0.0098133087158203125, rel=1e-15)

    def test_k_round_shape(self):
        # k identical rounds scale the single-round bound linearly
        k, q, p = 8, 1000, 2.0 ** -30
        got = reprogramming_advantage(q, [p] * k)
        expect = k * (math.sqrt(q * p) + q * p / 2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            reprogramming_advantage(-1, [0.5])
        with pytest.raises(ValueError):
            reprogramming_advantage(1, [-0.5])


class TestHybrids:
    def test_h0_and_h2_accept(self, toy_group):
        rng = random.Random(20)
        inst, wit = keygen(toy_group, rng)
        accept = {"H0": 0, "H2": 0}
        runs = 200
        for mode in ("H0", "H2"):
            for seed in range(runs):
                proto, oracle = fresh(toy_group, 1000 + seed)
                try:
                    s = hybrid_experiment(PARAMS, proto, inst, wit, mode,
                                          oracle, random.Random(seed))
                except Abort:
                    continue
                accept[mode] += s.verdict
        floor = runs * (1 - completeness_error(PARAMS).upper_bound) - 4 * runs ** 0.5
        assert accept["H0"] >= floor
        assert accept["H2"] >= floor

    def test_h1_prime_always_verifies(self, toy_group):
        rng = random.Random(21)
        inst, wit = keygen(toy_group, rng)
        for seed in range(50):
            proto, oracle = fresh(toy_group, 2000 + seed)
            try:
                s = hybrid_experiment(PARAMS, proto, inst, wit, "H1'",
                                      oracle, random.Random(seed))
            except Abort:
                continue
            assert s.verdict

    def test_h0_and_h1_prime_challenges_agree(self, toy_group):
        # H0 grinds each challenge on the oracle and H1' takes the first
        # zero cell of its tilde row: at k=8, l=6, N=768 both follow
        # Geom(2^-6) truncated to [0, 768), mean about 63
        params = FischlinParams.explicit(8, 6, 4)
        inst, wit = keygen(toy_group, random.Random(23))
        challenges = {}
        for mode in ("H0", "H1'"):
            challenges[mode] = []
            for seed in range(300):
                proto, oracle = fresh(toy_group, 4000 + seed, params)
                s = hybrid_experiment(params, proto, inst, wit, mode,
                                      oracle, random.Random(seed))
                assert s.verdict
                challenges[mode] += s.proof.c_vec
        h0, h1 = challenges["H0"], challenges["H1'"]
        se = math.sqrt(statistics.variance(h0) / len(h0)
                       + statistics.variance(h1) / len(h1))
        assert abs(statistics.mean(h0) - statistics.mean(h1)) <= 3 * se
        assert ks_2samp(h0, h1).pvalue > 0.01

    def test_h1_uniform_challenges_rarely_hash_to_zero(self, toy_group):
        # H1 draws challenges without conditioning, so its proofs verify
        # only when the tilde cell happens to be zero
        rng = random.Random(22)
        inst, wit = keygen(toy_group, rng)
        accepted = 0
        runs = 300
        for seed in range(runs):
            proto, oracle = fresh(toy_group, 3000 + seed)
            s = hybrid_experiment(PARAMS, proto, inst, wit, "H1",
                                  oracle, random.Random(seed))
            accepted += s.verdict
        p = 2.0 ** (-PARAMS.l * PARAMS.k)  # both cells zero
        sigma = max((runs * p * (1 - p)) ** 0.5, 1.0)
        assert abs(accepted - runs * p) <= 4 * sigma

    def test_h1prime_vs_h2_per_repetition_marginals(self, tiny_group, stub_rng):
        # the only difference between H1' and H2 is honest versus
        # simulated (a, z) for the already-chosen challenge; enumerate all
        # randomness on the q=11 group and compare the distributions
        proto = Schnorr(tiny_group)
        inst = SigmaInstance(tiny_group, pow(2, 4, 23))
        wit_w = 4
        from fischlin.sigma import SigmaWitness
        wit = SigmaWitness(wit_w)
        for c in range(11):
            honest = Counter()
            for r in range(11):
                a, state = proto.commit(inst, stub_rng(r))
                honest[(a, c, proto.respond(state, wit, c))] += 1
            simulated = Counter()
            for z in range(11):
                a, zz = proto.simulate(inst, c, stub_rng(z))
                simulated[(a, c, zz)] += 1
            assert honest == simulated

    def test_h2_matches_simulate_output(self, toy_group):
        # H2 runs the simulator's code path: same rng, same oracle seed,
        # identical proof
        inst = SigmaInstance(toy_group, 80)
        proto, oracle = fresh(toy_group, 30)
        out = simulate(PARAMS, proto, inst, oracle, random.Random(30))
        proto2, oracle2 = fresh(toy_group, 30)
        s = hybrid_experiment(PARAMS, proto2, inst, None, "H2",
                              oracle2, random.Random(30))
        assert s.proof == out.proof
        assert s.verdict

    def test_unknown_mode_rejected(self, toy_group):
        proto, oracle = fresh(toy_group, 31)
        inst = SigmaInstance(toy_group, 80)
        with pytest.raises(ValueError):
            hybrid_experiment(PARAMS, proto, inst, None, "H3", oracle,
                              random.Random(0))
