import itertools
import math

import numpy as np
import pytest

from fischlin import lab
from fischlin.bounds import eval_eps_dprime, eval_eps_gamma
from fischlin.lab import (
    AMPLITUDE_CAP,
    _over_cap,
    SmokeReport,
    TensorState,
    _hadamard_basis,
    _query_op,
    build_symmetric_state,
    chernoff_mc,
    comp_matrix,
    comp_zero_branch_weights,
    comp_zero_tail_exact,
    measure_bound_check,
    permute_registers,
    plus_state,
    product_state,
    query_unitary_smoke,
    sequential_measure_martingale,
    subspace_defect,
)


class TestCompMatrix:
    @pytest.mark.parametrize("l", range(1, 7))
    def test_unitary_involution(self, l):
        c = comp_matrix(l)
        eye = np.eye(c.shape[0])
        assert np.abs(c @ c - eye).max() <= 1e-12
        assert np.abs(c.conj().T @ c - eye).max() <= 1e-12

    def test_swaps_uniform_and_marker(self):
        for l in (1, 2, 3):
            c = comp_matrix(l)
            d = 1 << l
            bot = np.zeros(d + 1, dtype=complex)
            bot[d] = 1.0
            assert np.abs(c @ bot - plus_state(l, with_bot=True)).max() <= 1e-12
            assert np.abs(c @ plus_state(l, with_bot=True) - bot).max() <= 1e-12

    def test_zero_string_image_at_l1(self):
        # Comp|0> = (1/2)|0> - (1/2)|1> + (1/sqrt 2)|bot|
        c = comp_matrix(1)
        zero = np.array([1.0, 0.0, 0.0], dtype=complex)
        got = c @ zero
        expect = np.array([0.5, -0.5, 2.0 ** -0.5])
        assert np.abs(got - expect).max() <= 1e-12
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12


def refuse_arrays(monkeypatch):
    """Make numpy's array builders that lab calls raise, so a size check
    that comes after an allocation fails the test instead of allocating."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy asked for an array")

    for name in ("array", "zeros", "eye", "outer", "kron"):
        monkeypatch.setattr(lab.np, name, refuse)


class TestCapBeforeAllocating:
    """Each builder checks AMPLITUDE_CAP, and comp_matrix l >= 1, before
    numpy builds anything."""

    @pytest.mark.parametrize("l", [12, 24, 10 ** 6])
    def test_comp_matrix(self, l, monkeypatch):
        refuse_arrays(monkeypatch)
        with pytest.raises(ValueError, match="matrix exceeds the amplitude cap"):
            comp_matrix(l)

    @pytest.mark.parametrize("l", [0, -1])
    def test_comp_matrix_needs_l(self, l, monkeypatch):
        refuse_arrays(monkeypatch)
        with pytest.raises(ValueError, match="need l >= 1"):
            comp_matrix(l)

    @pytest.mark.parametrize("m,l", [(30, 4), (25, 1), (10 ** 6, 1)])
    def test_product_state(self, m, l, monkeypatch):
        local = plus_state(l)
        refuse_arrays(monkeypatch)
        with pytest.raises(ValueError, match="state exceeds the amplitude cap"):
            product_state(m, local)

    @pytest.mark.parametrize("l,with_bot", [(24, True), (25, False), (10 ** 6, False)])
    def test_plus_state(self, l, with_bot, monkeypatch):
        refuse_arrays(monkeypatch)
        with pytest.raises(ValueError, match="state exceeds the amplitude cap"):
            plus_state(l, with_bot)

    def test_cap_boundary(self):
        # (2^11 + 1)^2 and 2^24 fit, (2^12 + 1)^2 and 2^25 do not; a base
        # of 1 never passes the cap
        assert not _over_cap(2049, 2) and _over_cap(4097, 2)
        assert not _over_cap(2, 24) and _over_cap(2, 25)
        assert not _over_cap(1, 10 ** 9) and _over_cap(16, 30)
        assert plus_state(3, with_bot=True).size == 9
        assert product_state(3, plus_state(1)).shape == (2, 2, 2)


class TestCompZeroTail:
    def test_branch_weights_sum_to_one(self):
        for l in range(1, 9):
            w0, w_rest, w_bot = comp_zero_branch_weights(l)
            assert w0 + w_rest + w_bot == pytest.approx(1.0)
            assert w0 == pytest.approx((1 - 2.0 ** -l) ** 2)
            assert w_bot == pytest.approx(2.0 ** -l)

    def test_tiny_case_matches_tensor_expansion(self):
        # independent oracle: expand (Comp|0>)^(x2) as a dense 9-dim
        # vector and weigh the branch where no register reads 0
        c = comp_matrix(1)
        local = c @ np.array([1.0, 0, 0], dtype=complex)
        tensor = np.kron(local, local).reshape(3, 3)
        off = tensor.copy()
        off[0, :] = 0.0
        off[:, 0] = 0.0
        expect = float(np.linalg.norm(off) ** 2)
        assert expect == pytest.approx(9 / 16)
        assert comp_zero_tail_exact(1, 2, 0.5) == pytest.approx(9 / 16)

    def test_tail_below_chernoff_on_grid(self):
        # the bound the tail provably satisfies: the lower-tail Chernoff
        # inequality at mean k p0 with deviation 1 - (1 - gamma)/p0
        for l in range(2, 9):
            for k in (4, 16, 64, 256, 1024, 4096):
                for gamma in {4 * 2.0 ** -l, 0.25, 0.5}:
                    if not 2 * 2.0 ** -l < gamma <= 0.5:
                        continue
                    p0 = (1 - 2.0 ** -l) ** 2
                    exact = comp_zero_tail_exact(l, k, gamma)
                    honest = math.exp(-(p0 - (1 - gamma)) ** 2 * k / (2 * p0))
                    assert exact <= honest * (1 + 1e-12), (l, k, gamma)

    def test_tail_below_linear_rate_bound_where_rate_is_slack(self):
        # the linear-exponent form e^{-(gamma - 2*2^-l) k / 2} holds
        # whenever the binomial's large-deviation rate exceeds the claimed
        # rate, e.g. at gamma = 1/4 and 1/2 for moderate l
        for l in (3, 4, 5, 6):
            for k in (4, 64, 1024, 4096):
                for gamma in (0.25, 0.5):
                    if not 2 * 2.0 ** -l < gamma:
                        continue
                    exact = comp_zero_tail_exact(l, k, gamma)
                    bound = eval_eps_gamma(gamma, l, k)
                    assert exact <= bound * (1 + 1e-12), (l, k, gamma)

    def test_linear_rate_bound_fails_at_small_gamma_large_k(self):
        # documented defect (see README, expected-state note): at gamma = 4*2^-l
        # the exact tail decays at the Kullback-Leibler rate, which is
        # strictly below the claimed linear rate for l >= 5, so the bound
        # flips once k is large. Pinned so nobody "fixes" the sweep above
        # into silently asserting a false inequality.
        exact = comp_zero_tail_exact(5, 1024, 4 * 2.0 ** -5)
        claimed = eval_eps_gamma(4 * 2.0 ** -5, 5, 1024)
        assert exact > claimed
        assert exact == pytest.approx(2.175e-14, rel=1e-3)

    def test_vacuous_bound_still_ordered(self):
        # l=1, gamma=1/2 violates the bound's own hypothesis; the exact
        # tail still sits below the (vacuous) value e^{1/2}
        assert comp_zero_tail_exact(1, 2, 0.5) <= eval_eps_gamma(0.5, 1, 2)

    def test_complement_consistency_for_tiny_gamma(self):
        # gamma below 1/k: the tail is everything except the all-zeros
        # branch, 1 - p0^k
        for l, k in ((2, 4), (3, 8)):
            p0 = (1 - 2.0 ** -l) ** 2
            got = comp_zero_tail_exact(l, k, 1.0 / (4 * k))
            assert got == pytest.approx(1 - p0 ** k, rel=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            comp_zero_tail_exact(2, 4, 0.0)
        with pytest.raises(ValueError):
            comp_zero_tail_exact(2, 4, 0.7)


class TestSymmetricStates:
    def test_full_plus_case(self):
        rng = np.random.default_rng(0)
        st = build_symmetric_state(3, 3, 1, rng)
        rep = measure_bound_check(st)
        assert rep.plus_weight == pytest.approx(1.0)
        assert rep.zero_weight == pytest.approx(0.5)

    def test_norm_symmetry_under_permutations(self):
        rng = np.random.default_rng(1)
        st = build_symmetric_state(3, 2, 1, rng)
        d = st.register_dim
        for trial in range(20):
            diag = rng.standard_normal((d,) * 3)
            a = diag.reshape((d,) * 3 + (1,))
            base = float(np.linalg.norm(a * st.amps))
            for perm in itertools.permutations(range(3)):
                permuted = permute_registers(st, perm)
                got = float(np.linalg.norm(a * permuted.amps))
                assert got == pytest.approx(base, abs=1e-12)

    def test_membership_in_subspace(self):
        rng = np.random.default_rng(2)
        for m, n, l in ((2, 1, 1), (3, 2, 1), (4, 2, 2), (3, 3, 2)):
            st = build_symmetric_state(m, n, l, rng)
            assert subspace_defect(st, n) <= 1e-12
            # and states with fewer plus registers than claimed stick out
            if n > 1:
                assert subspace_defect(st, m + 1) >= 0.0

    def test_unsymmetrized_variant(self):
        rng = np.random.default_rng(3)
        st = build_symmetric_state(4, 2, 1, rng, symmetrize=False)
        assert st.env_axes == 0
        assert st.amps.shape == (2,) * 4
        assert subspace_defect(st, 2) <= 1e-12

    def test_parameter_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_symmetric_state(3, 0, 1, rng)
        with pytest.raises(ValueError):
            build_symmetric_state(3, 4, 1, rng)


class TestMeasureBound:
    def test_vacuous_rhs_still_checked(self):
        rng = np.random.default_rng(5)
        st = build_symmetric_state(2, 1, 1, rng)
        rep = measure_bound_check(st)
        assert rep.zero_floor < 0  # 0.25 - sqrt(2)/2
        assert rep.plus_weight >= 0.5 - 1e-10
        assert rep.bounds_ok

    def test_product_plus_zero_weight_exact(self):
        rng = np.random.default_rng(6)
        for l in (1, 2):
            st = build_symmetric_state(4, 4, l, rng)
            rep = measure_bound_check(st)
            assert rep.zero_weight == pytest.approx(2.0 ** -l)
            assert rep.zero_floor == pytest.approx(2.0 ** -l)
            assert rep.bounds_ok

    def test_randomized_sweep(self):
        rng = np.random.default_rng(7)
        for m in (2, 3, 4):
            for n in range(1, m + 1):
                for l in (1, 2):
                    for _ in range(30):
                        st = build_symmetric_state(m, n, l, rng)
                        rep = measure_bound_check(st)
                        assert rep.bounds_ok, (m, n, l, rep)

    def test_requires_n(self):
        amps = product_state(2, plus_state(1))
        st = TensorState(2, 1, amps)
        with pytest.raises(ValueError):
            measure_bound_check(st)
        assert measure_bound_check(st, n=2).bounds_ok


class TestMartingale:
    def test_product_plus_matches_hoeffding(self):
        # iid Bernoulli(1/2) per register: the dependent-sequence bound
        # reduces to the independent one
        st = TensorState(8, 1, product_state(8, plus_state(1)))
        rng = np.random.default_rng(8)
        for eps in (2.0, 3.0):
            rep = sequential_measure_martingale(st, eps, 100_000, rng)
            assert rep.ok
            assert rep.mean_cum_mean == pytest.approx(4.0, abs=1e-9)
            exact = sum(math.comb(8, j) for j in range(0, math.floor(4 - eps) + 1)) / 256
            assert rep.empirical == pytest.approx(exact, abs=4 * rep.sigma + 0.01)

    def test_deterministic_zero_state_never_deviates(self):
        local = np.zeros(2, dtype=complex)
        local[0] = 1.0
        st = TensorState(6, 1, product_state(6, local))
        rng = np.random.default_rng(9)
        rep = sequential_measure_martingale(st, 0.5, 2000, rng)
        assert rep.empirical == 0.0
        assert rep.mean_zero_count == 6.0
        assert rep.mean_cum_mean == pytest.approx(6.0)

    def test_symmetric_state_obeys_bound(self):
        rng = np.random.default_rng(10)
        st = build_symmetric_state(4, 2, 1, rng)
        for eps in (1.0, 2.0, 3.0):
            rep = sequential_measure_martingale(st, eps, 20_000, rng)
            assert rep.ok, rep

    @pytest.mark.parametrize("eps", [-1.0, 0.0, 1e-320, 1e100, math.inf, math.nan])
    def test_epsilon_domain(self, eps):
        # the bound is stated for epsilon > 0, and a bound of 1 or 0 checks nothing
        st = TensorState(2, 1, product_state(2, plus_state(1)))
        with pytest.raises(ValueError, match="need epsilon > 0"):
            sequential_measure_martingale(st, eps, 10, np.random.default_rng(10))


class TestChernoffMC:
    def test_standard_point(self):
        rng = np.random.default_rng(11)
        rep = chernoff_mc(4096, 2.0 ** -4, 0.5, 10_000, rng)
        assert rep.mu == 256.0
        assert rep.ok

    def test_degenerate_certain_success(self):
        rng = np.random.default_rng(12)
        rep = chernoff_mc(100, 1.0, 1.0, 1000, rng)
        # X = 100 always; the upper tail at 2 mu is empty
        assert rep.upper_tail_emp == 0.0
        assert rep.ok

    def test_bounds_share_engine_code(self):
        rng = np.random.default_rng(13)
        k, l, n = 16, 4, 256
        rep = chernoff_mc(k * n, 2.0 ** -l, 0.3, 100, rng)
        assert rep.upper_bound == pytest.approx(
            eval_eps_dprime(k, l, n, 0.3), rel=1e-15)

    def test_delta_domain(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            chernoff_mc(10, 0.5, 0.0, 10, rng)

    @pytest.mark.parametrize("n,p", [(0, 0.5), (-1, 0.5), (10, 0.0), (10, 1.5), (10, math.nan)])
    def test_n_and_p_domain(self, n, p):
        # no draws, or p = 0, put every tail and bound at 1
        with pytest.raises(ValueError, match=r"^need n >= 1 and p in \(0, 1\]$"):
            chernoff_mc(n, p, 0.5, 10, np.random.default_rng(14))


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_rejected(trials):
    # both Monte-Carlo checks divide by the trial count
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        chernoff_mc(64, 0.5, 0.5, trials, rng)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        sequential_measure_martingale(build_symmetric_state(2, 1, 1, rng), 1.0, trials, rng)


class TestQuerySmoke:
    def test_binary_domain(self):
        rep = query_unitary_smoke(1, 2)
        assert rep.unitary_defect <= 1e-12
        assert rep.empty_db_mass == pytest.approx(1.0, abs=1e-12)
        assert rep.y_uniform_dev <= 1e-12
        assert rep.db_size_excess_mass <= 1e-12
        assert rep.same_x_dev <= 1e-12
        assert rep.independent_dev <= 1e-12
        assert rep.ok

    def test_wider_output(self):
        assert query_unitary_smoke(2, 2).ok
        assert query_unitary_smoke(3, 1).ok

    def test_domain_cap(self):
        # (4, 3) passes a domain_size * l <= 12 guard, yet its dense
        # operator would need about 829 GiB
        for l, domain_size in ((4, 4), (4, 3)):
            with pytest.raises(ValueError):
                query_unitary_smoke(l, domain_size)


class TestTensorStateInvariants:
    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            build_symmetric_state(8, 4, 3, np.random.default_rng(0))

    def test_normalization_enforced(self):
        bad = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            TensorState(2, 1, bad)


# Loop-based versions of the tensor plumbing: one tensordot per axis, a
# Python loop over every index tuple for the W(n, m) mask and the database
# size, and the dense block-diagonal query operator. The vectorised code
# must agree with them bit for bit.

def reference_build_symmetric_state(m, n, l, rng, symmetrize=True):
    d = 1 << l
    coeff = np.zeros((d,) * m, dtype=complex)
    for t in itertools.product(range(d), repeat=m):
        if sum(1 for v in t if v == 0) >= n:
            coeff[t] = rng.standard_normal() + 1j * rng.standard_normal()
    if not np.any(coeff):
        coeff[(0,) * m] = 1.0
    basis = _hadamard_basis(d)
    amps = coeff
    for ax in range(m):
        amps = np.moveaxis(np.tensordot(basis, amps, axes=(1, ax)), 0, ax)
    amps = amps / np.linalg.norm(amps)
    if not symmetrize:
        return amps
    perms = list(itertools.permutations(range(m)))
    sym = np.stack([np.transpose(amps, axes=p) for p in perms], axis=-1)
    return sym / math.sqrt(len(perms))


def reference_subspace_defect(state, n):
    d = state.register_dim
    basis = _hadamard_basis(d)
    amps = state.amps
    for ax in range(state.m):
        amps = np.moveaxis(np.tensordot(basis, amps, axes=(1, ax)), 0, ax)
    mask = np.zeros((d,) * state.m, dtype=bool)
    for t in itertools.product(range(d), repeat=state.m):
        if sum(1 for v in t if v == 0) >= n:
            mask[t] = True
    projected = amps * mask.reshape(mask.shape + (1,) * state.env_axes)
    return float(np.linalg.norm(amps - projected))


def reference_two_axis_apply(op, state, ax1, ax2):
    d1, d2 = state.shape[ax1], state.shape[ax2]
    moved = np.moveaxis(state, (ax1, ax2), (0, 1))
    out = (op @ moved.reshape(d1 * d2, -1)).reshape((d1, d2) + moved.shape[2:])
    return np.moveaxis(out, (0, 1), (ax1, ax2))


def reference_query_unitary_smoke(l, domain_size):
    d = 1 << l
    dd = d + 1
    bot = d
    dim_rest = d * dd ** domain_size
    assert (domain_size * dim_rest) ** 2 <= AMPLITUDE_CAP
    op = _query_op(l)
    full = np.zeros((domain_size * dim_rest,) * 2, dtype=complex)
    for x in range(domain_size):
        cols = np.eye(dim_rest, dtype=complex).reshape(
            (d,) + (dd,) * domain_size + (dim_rest,))
        cols = reference_two_axis_apply(op, cols, 0, 1 + x)
        block = cols.reshape(dim_rest, dim_rest)
        full[x * dim_rest:(x + 1) * dim_rest, x * dim_rest:(x + 1) * dim_rest] = block
    unitary_defect = float(np.abs(full.conj().T @ full - np.eye(full.shape[0])).max())

    empty = product_state(domain_size, plus_state(l, with_bot=True))
    comp = comp_matrix(l)
    for ax in range(domain_size):
        empty = np.moveaxis(np.tensordot(comp, empty, axes=(1, ax)), 0, ax)
    empty_db_mass = float(np.abs(empty[(bot,) * domain_size]) ** 2)

    state = np.zeros((d,) + (dd,) * domain_size, dtype=complex)
    state[(0,) + (bot,) * domain_size] = 1.0
    state = reference_two_axis_apply(op, state, 0, 1)
    y_marg = (np.abs(state.reshape(d, -1)) ** 2).sum(axis=1)
    y_uniform_dev = float(np.abs(y_marg - 1.0 / d).max())

    probs = np.abs(state) ** 2
    excess = 0.0
    for idx in np.ndindex(*probs.shape):
        if sum(1 for v in idx[1:] if v != bot) > 1:
            excess += probs[idx]
    db_size_excess_mass = float(excess)

    two = np.zeros((d, d) + (dd,) * domain_size, dtype=complex)
    two[(0, 0) + (bot,) * domain_size] = 1.0
    same = reference_two_axis_apply(op, two, 0, 2)
    same = reference_two_axis_apply(op, same, 1, 2)
    joint = (np.abs(same) ** 2).reshape(d, d, -1).sum(axis=2)
    target = np.zeros((d, d))
    np.fill_diagonal(target, 1.0 / d)
    same_x_dev = float(np.abs(joint - target).max())

    independent_dev = 0.0
    if domain_size >= 2:
        indep = reference_two_axis_apply(op, two, 0, 2)
        indep = reference_two_axis_apply(op, indep, 1, 3)
        joint = (np.abs(indep) ** 2).reshape(d, d, -1).sum(axis=2)
        independent_dev = float(np.abs(joint - 1.0 / d ** 2).max())

    return SmokeReport(l, domain_size, unitary_defect, empty_db_mass,
                       y_uniform_dev, db_size_excess_mass, same_x_dev,
                       independent_dev)


class TestMatchesReference:
    @pytest.mark.parametrize("symmetrize", [True, False])
    @pytest.mark.parametrize("l", [1, 2])
    def test_symmetric_state_and_defect(self, l, symmetrize):
        for m in range(1, 5):
            for n in range(1, m + 1):
                for seed in range(3):
                    got = build_symmetric_state(m, n, l, np.random.default_rng(seed),
                                                symmetrize=symmetrize)
                    want = reference_build_symmetric_state(
                        m, n, l, np.random.default_rng(seed), symmetrize=symmetrize)
                    assert np.array_equal(got.amps, want), (m, n, seed)
                    for nn in range(1, m + 2):
                        assert subspace_defect(got, nn) == \
                            reference_subspace_defect(got, nn), (m, n, seed, nn)

    @pytest.mark.parametrize("l,domain_size",
                             list(itertools.product((1, 2), (1, 2, 3))))
    def test_query_smoke(self, l, domain_size):
        assert query_unitary_smoke(l, domain_size) == \
            reference_query_unitary_smoke(l, domain_size)
