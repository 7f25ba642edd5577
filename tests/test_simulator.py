import hashlib
import math
import random
import statistics
import struct
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

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

    def test_challenge_law_at_benchmark_size(self, toy_group):
        """One simulated proof at k=1024, l=8, c=2 (N = T = 5120) per seed:
        its 1024 challenges against Geom(2^-8) truncated to [0, T), over 16
        bins of about equal mass, give a chi-square p above 0.001."""
        params = FischlinParams.explicit(1024, 8, 2)
        q = 1 - Fraction(1, 2 ** 8)
        edges = [0, *(math.ceil(math.log(1 - j / 16) / math.log(q)) for j in range(1, 16)),
                 params.T]
        mass = [(q ** a - q ** b) / (1 - q ** params.T) for a, b in zip(edges, edges[1:])]
        inst = SigmaInstance(toy_group, 80)
        for seed in (1, 2, 3):
            proto, oracle = fresh(toy_group, seed, params)
            c_vec = simulate(params, proto, inst, oracle, random.Random(seed)).proof.c_vec
            seen = [sum(a <= c < b for c in c_vec) for a, b in zip(edges, edges[1:])]
            assert chisquare(seen, [float(m * params.k) for m in mass]).pvalue > 0.001

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


def stub_blocks(tilde, cells, tops=()):
    """Make every row of ``tilde`` read its blocks from ``cells``: block b
    holds ``cells[b * per:(b + 1) * per]`` (per = 256 // l) in its l-bit
    fields, zeros in any fields past the list, and ``tops[b]`` (default 0)
    in the unused bits above its fields. A block past the cells raises
    IndexError. Returns the list of block indices read, in order."""
    per, l = tilde.per_block, tilde.l
    rows = [cells[start:start + per] for start in range(0, len(cells), per)]
    tops = [*tops, *[0] * (len(rows) - len(tops))]
    blocks = [sum(v << (j * l) for j, v in enumerate(row)) | top << (per * l)
              for row, top in zip(rows, tops)]
    reads = []

    def block(i, b):
        reads.append(b)
        return blocks[b]

    tilde.block = block
    return reads


def weighted_rows(l, n):
    """Every row of n cells of l bits with its probability: at l <= 2 every
    assignment of values; above, every zero pattern, the nonzero cells
    holding 2^l - 1, 2^l - 2, ... in turn."""
    p = Fraction(1, 2 ** l)
    if l <= 2:
        for cells in product(range(2 ** l), repeat=n):
            yield cells, p ** n
        return
    for zeros in product((False, True), repeat=n):
        weight = Fraction(1)
        for zero in zeros:
            weight *= p if zero else 1 - p
        yield [0 if zero else 2 ** l - 1 - c for c, zero in enumerate(zeros)], weight


class CountedHash:
    """A SHA-256 object that appends to ``log`` on each digest."""

    def __init__(self, h, log):
        self.h, self.log = h, log

    def copy(self):
        return CountedHash(self.h.copy(), self.log)

    def update(self, data):
        self.h.update(data)

    def digest(self):
        self.log.append(1)
        return self.h.digest()


class TestZeroCellSampling:
    @settings(max_examples=300, deadline=None)
    @given(l=st.integers(1, 64), attempts=st.integers(1, 1200),
           zeros=st.sets(st.integers(0, 1300), max_size=3),
           top=st.integers(0, 2 ** 255), seed=st.integers(0, 2 ** 32))
    # l = 3: 85 cells and one unused bit, 0, per block; T = 100 ends in
    # block 1, which holds a zero just past it
    @example(l=3, attempts=100, zeros={100}, top=0, seed=0)
    # l = 9: 28 cells and four unused bits, 0, per block; the zero is the
    # last cell below T = 30, in block 1
    @example(l=9, attempts=30, zeros={29}, top=0, seed=1)
    # l = 64: no unused bits; the first zero is cell 0 of block 2
    @example(l=64, attempts=9, zeros={8}, top=0, seed=2)
    def test_matches_reference(self, l, attempts, zeros, top, seed):
        """On a row whose cells are random nonzero values but for
        ``zeros`` (taken modulo the row's length), with the unused bits of each block set from ``top``, the
        block scan returns the first zero cell below ``attempts`` that
        ``TildeFunction.__call__`` reads, or aborts with the same message
        when there is none. It reads blocks 0, 1, ... in turn and no block
        past the one holding the answer."""
        rnd = random.Random(seed)
        tilde = TildeFunction(bytes(32), l)
        per = tilde.per_block
        blocks = -(-attempts // per)
        zeros = {z % (blocks * per) for z in zeros}
        cells = [0 if c in zeros else rnd.randint(1, 2 ** l - 1)
                 for c in range(blocks * per)]
        reads = stub_blocks(tilde, cells, [top % (1 << 256 - per * l)] * blocks)
        assert [tilde(1, c) for c in range(len(cells))] == cells
        reads.clear()
        want = next((c for c in range(attempts) if cells[c] == 0), None)
        if want is None:
            with pytest.raises(Abort) as exc:
                first_zero_challenge(tilde, 1, attempts)
            assert str(exc.value) == \
                f"repetition 1: no zero cell within {attempts} challenges"
            assert reads == list(range(blocks))
        else:
            assert first_zero_challenge(tilde, 1, attempts) == want
            assert reads == list(range(want // per + 1))

    def test_block_is_the_specified_hash(self):
        """Block b of row i is SHA-256("fischlin-tilde" || seed || u32 i ||
        u32 b), big-endian, and cell c is its (c mod 256 // l)-th l-bit
        field from the low end; the scan agrees with those cells."""
        for l in (1, 3, 8, 13, 64):
            seed = bytes([l]) * 32
            tilde = TildeFunction(seed, l)
            per = 256 // l
            for i, b in ((1, 0), (2, 1), (2 ** 20, 7)):
                x = int.from_bytes(hashlib.sha256(
                    b"fischlin-tilde" + seed + struct.pack(">II", i, b)).digest(), "big")
                assert tilde.block(i, b) == x
                assert [tilde(i, b * per + j) for j in range(per)] == \
                    [x >> (j * l) & (2 ** l - 1) for j in range(per)]
            attempts = 3 * per + per // 2
            for i in range(1, 6):
                want = next((c for c in range(attempts) if tilde(i, c) == 0), None)
                if want is None:
                    with pytest.raises(Abort):
                        first_zero_challenge(tilde, i, attempts)
                else:
                    assert first_zero_challenge(tilde, i, attempts) == want

    def test_law_is_truncated_geometric(self):
        """Over every row of n <= 4 cells (every value at l = 1 and 2,
        every zero pattern at l = 3; see ``weighted_rows``), the rest of
        the block zero, the challenge law is exactly the prover's:
        P(c) = (1 - p)^c p for c < T and Abort with (1 - p)^T, where
        p = 2^-l, so the law given no abort is Geom(2^-l) truncated to
        [0, T)."""
        for l, n in product((1, 2, 3), range(1, 5)):
            p = Fraction(1, 2 ** l)
            for attempts in range(1, n + 1):
                law, aborted = Counter(), Fraction(0)
                for cells, weight in weighted_rows(l, n):
                    tilde = TildeFunction(bytes(32), l)
                    stub_blocks(tilde, cells)
                    try:
                        law[first_zero_challenge(tilde, 1, attempts)] += weight
                    except Abort:
                        aborted += weight
                assert aborted == (1 - p) ** attempts
                assert {c: w / (1 - aborted) for c, w in law.items()} == {
                    c: (1 - p) ** c * p / (1 - (1 - p) ** attempts)
                    for c in range(attempts)}

    def test_one_hash_per_block(self, monkeypatch):
        """Returning c takes at most ceil((c + 1) / (256 // l)) SHA-256
        digests, and an abort at most ceil(T / (256 // l)): one per block
        of cells, where one per cell would take c + 1 and T."""
        log, sha256 = [], hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda *a, **kw: CountedHash(sha256(*a, **kw), log))
        for l in (1, 2, 3, 5, 8, 12, 64):
            per, attempts = 256 // l, min(2 ** (l + 2), 4096)
            tilde = TildeFunction(bytes([l]) * 32, l)
            for i in range(1, 21):
                log.clear()
                try:
                    c = first_zero_challenge(tilde, i, attempts)
                except Abort:
                    assert len(log) <= -(-attempts // per)
                else:
                    assert len(log) <= -(-(c + 1) // per)

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

    @staticmethod
    def assert_challenges_agree(toy_group, mode):
        """300 proofs each of H0 and ``mode`` at k=8, l=6, N=768: their
        challenges have means within 3 combined standard errors and a
        two-sample KS p above 0.01."""
        params = FischlinParams.explicit(8, 6, 4)
        inst, wit = keygen(toy_group, random.Random(23))
        challenges = {}
        for m in ("H0", mode):
            challenges[m] = []
            for seed in range(300):
                proto, oracle = fresh(toy_group, 4000 + seed, params)
                s = hybrid_experiment(params, proto, inst, wit, m,
                                      oracle, random.Random(seed))
                assert s.verdict
                challenges[m] += s.proof.c_vec
        h0, other = challenges["H0"], challenges[mode]
        se = math.sqrt(statistics.variance(h0) / len(h0)
                       + statistics.variance(other) / len(other))
        assert abs(statistics.mean(h0) - statistics.mean(other)) <= 3 * se
        assert ks_2samp(h0, other).pvalue > 0.01

    def test_h0_and_h1_prime_challenges_agree(self, toy_group):
        # H0 grinds each challenge on the oracle and H1' takes the first
        # zero cell of its tilde row: at k=8, l=6, N=768 both follow
        # Geom(2^-6) truncated to [0, 768), mean about 63
        self.assert_challenges_agree(toy_group, "H1'")

    def test_h0_and_h2_challenges_agree(self, toy_group):
        # H2 is the simulator's code path, with simulated responses
        self.assert_challenges_agree(toy_group, "H2")

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
