"""Desk-scale numerical checks of the oracle-register linear algebra.

Dense complex statevectors only, hard-capped at 2^24 amplitudes. A local
register holds an l-bit hash output extended by an "unqueried" marker: its
dimension is 2^l + 1, indices 0 .. 2^l - 1 are the computational outputs
(index 0 is the all-zero string) and index 2^l is the marker, written bot
below. The compression operator swaps the uniform superposition with bot
and fixes the orthogonal complement.

The subspace W(n, m) is spanned by m-register states (plain sector, no
marker) having at least n registers in the uniform-superposition state;
the states sampled here carry an extra permutation register so that every
operator norm on the main registers is permutation invariant, which is the
hypothesis of the single-register measurement bound.

Monte-Carlo helpers reuse the tail-bound formulas from
:mod:`fischlin.bounds` so the simulated and the reported bounds share one
code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .bounds import chernoff_lower_log, chernoff_upper_log

__all__ = [
    "AMPLITUDE_CAP",
    "comp_matrix",
    "plus_state",
    "product_state",
    "comp_zero_branch_weights",
    "comp_zero_tail_exact",
    "TensorState",
    "build_symmetric_state",
    "permute_registers",
    "subspace_defect",
    "MeasureReport",
    "measure_bound_check",
    "MartingaleReport",
    "sequential_measure_martingale",
    "ChernoffReport",
    "chernoff_mc",
    "SmokeReport",
    "query_unitary_smoke",
]

AMPLITUDE_CAP = 1 << 24


def _over_cap(base: int, exp: int) -> bool:
    """base ** exp > AMPLITUDE_CAP, for base >= 1 and exp >= 0, decided
    without building a power far past the cap."""
    return base > 1 and (exp >= AMPLITUDE_CAP.bit_length() or base ** exp > AMPLITUDE_CAP)


def plus_state(l: int, with_bot: bool = False) -> np.ndarray:
    """Uniform superposition over the 2^l outputs; optional marker slot.
    ValueError past ``AMPLITUDE_CAP`` amplitudes, before allocating."""
    if _over_cap(2, l) or (1 << l) + with_bot > AMPLITUDE_CAP:
        raise ValueError("state exceeds the amplitude cap")
    d = 1 << l
    v = np.zeros(d + 1 if with_bot else d, dtype=complex)
    v[:d] = d ** -0.5
    return v


def comp_matrix(l: int) -> np.ndarray:
    """(2^l + 1)-dimensional basis change swapping the uniform
    superposition and the marker: a unitary involution. ValueError for
    l < 1 or a matrix past ``AMPLITUDE_CAP`` entries, before allocating."""
    if l < 1:
        raise ValueError("need l >= 1")
    # the first test keeps 1 << l small for the second
    if _over_cap(2, l) or _over_cap((1 << l) + 1, 2):
        raise ValueError("matrix exceeds the amplitude cap")
    d = 1 << l
    plus = plus_state(l, with_bot=True)
    bot = np.zeros(d + 1, dtype=complex)
    bot[d] = 1.0
    eye = np.eye(d + 1, dtype=complex)
    return (np.outer(bot, plus) + np.outer(plus, bot)
            + eye - np.outer(plus, plus) - np.outer(bot, bot))


def product_state(m: int, local: np.ndarray) -> np.ndarray:
    """m-fold tensor power of a single-register vector, shape (dim,) * m;
    ValueError for m < 1 or past ``AMPLITUDE_CAP`` amplitudes, before
    allocating."""
    if m < 1:
        raise ValueError("need m >= 1")
    if _over_cap(local.size, m):
        raise ValueError("state exceeds the amplitude cap")
    out = np.array([1.0], dtype=complex)
    for _ in range(m):
        out = np.kron(out, local)
    return out.reshape((local.size,) * m)


def comp_zero_branch_weights(l: int) -> tuple[float, float, float]:
    """Per-register weights of the compressed all-zero output state on the
    zero string, on the other outputs combined, and on the marker."""
    w0 = (1.0 - 2.0 ** -l) ** 2
    w_bot = 2.0 ** -l
    w_rest = ((1 << l) - 1) * 2.0 ** (-2 * l)
    return w0, w_rest, w_bot


def comp_zero_tail_exact(l: int, k: int, gamma: float):
    """Exact weight of the branch of (Comp |zero>)^(tensor k) with fewer
    than (1 - gamma) k registers on the zero string: the binomial tail
    Pr[Bin(k, (1 - 2^-l)^2) < (1 - gamma) k]."""
    if l < 1:
        raise ValueError("need l >= 1")
    if not 0.0 < gamma <= 0.5:
        raise ValueError("gamma must be in (0, 1/2]")
    if k > 10 ** 6:
        raise ValueError("k too large for the exact binomial")
    p0 = (1.0 - 2.0 ** -l) ** 2
    threshold = math.ceil((1.0 - gamma) * k - 1e-9) - 1
    if threshold < 0:
        return 0.0
    return float(binom.cdf(threshold, k, p0))


@dataclass
class TensorState:
    """Dense state over m registers of dimension 2^l (plain sector) or
    2^l + 1 (with marker), plus optional trailing environment axes."""

    m: int
    l: int
    amps: np.ndarray
    env_axes: int = 0
    n: int | None = None

    def __post_init__(self):
        if self.amps.size > AMPLITUDE_CAP:
            raise ValueError("state exceeds the amplitude cap")
        norm = np.linalg.norm(self.amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("state is not normalized")

    @property
    def register_dim(self) -> int:
        return self.amps.shape[0]


def _hadamard_basis(d: int) -> np.ndarray:
    """Real orthogonal involution whose first column is the uniform
    superposition; columns are the pattern basis."""
    h = np.array([[1.0]])
    core = np.array([[1.0, 1.0], [1.0, -1.0]])
    while h.shape[0] < d:
        h = np.kron(h, core)
    if h.shape[0] != d:
        raise ValueError("register dimension must be a power of two")
    return h / math.sqrt(d)


def _apply(op: np.ndarray, amps: np.ndarray, *axes: int) -> np.ndarray:
    """Apply a local operator to the given axes of a tensor: move them to
    the front, do one matmul, move them back."""
    front = tuple(range(len(axes)))
    moved = np.moveaxis(amps, axes, front)
    out = op @ moved.reshape(op.shape[1], -1)
    return np.moveaxis(out.reshape(moved.shape), front, axes)


def _to_pattern_basis(amps: np.ndarray, m: int) -> np.ndarray:
    """Change the first m axes to the pattern basis, or back: an involution."""
    basis = _hadamard_basis(amps.shape[0])
    for ax in range(m):
        amps = _apply(basis, amps, ax)
    return amps


def _w_mask(d: int, m: int, n: int) -> np.ndarray:
    """Pattern-basis index tuples spanning W(n, m): at least n of the m
    indices are 0, the uniform superposition."""
    return (np.indices((d,) * m) == 0).sum(axis=0) >= n


def build_symmetric_state(m: int, n: int, l: int, rng,
                          symmetrize: bool = True) -> TensorState:
    """Sample a random state of W(n, m) in the pattern-basis convention
    (components carrying fewer than n uniform-superposition registers are
    zero) and adjoin a permutation register recording which of the m!
    register orders each branch uses.

    The symmetrized state satisfies the permutation-invariance hypothesis
    of the measurement bound exactly.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    d = 1 << l
    size = d ** m * (math.factorial(m) if symmetrize else 1)
    if size > AMPLITUDE_CAP:
        raise ValueError("state exceeds the amplitude cap")
    mask = _w_mask(d, m, n)
    coeff = np.zeros(mask.shape, dtype=complex)
    # one normal pair (real, imaginary) per member index, in C order
    coeff[mask] = rng.standard_normal(2 * int(mask.sum())).view(complex)
    if not np.any(coeff):
        coeff[(0,) * m] = 1.0
    amps = _to_pattern_basis(coeff, m)
    amps = amps / np.linalg.norm(amps)
    if not symmetrize:
        return TensorState(m, l, amps, env_axes=0, n=n)
    perms = list(itertools.permutations(range(m)))
    sym = np.stack([np.transpose(amps, axes=p) for p in perms], axis=-1)
    sym /= math.sqrt(len(perms))
    return TensorState(m, l, sym, env_axes=1, n=n)


def permute_registers(state: TensorState, perm) -> TensorState:
    """Apply a permutation of the m main registers, fixing environment axes."""
    axes = list(perm) + list(range(state.m, state.amps.ndim))
    return TensorState(state.m, state.l, np.transpose(state.amps, axes=axes),
                       env_axes=state.env_axes, n=state.n)


def subspace_defect(state: TensorState, n: int) -> float:
    """Distance between the state and its projection onto W(n, m),
    computed in the pattern basis. Zero for members."""
    amps = _to_pattern_basis(state.amps, state.m)
    mask = _w_mask(state.register_dim, state.m, n)
    shape = mask.shape + (1,) * state.env_axes
    projected = amps * mask.reshape(shape)
    return float(np.linalg.norm(amps - projected))


@dataclass(frozen=True)
class MeasureReport:
    plus_weight: float
    zero_weight: float
    plus_floor: float
    zero_floor: float
    plus_ok: bool
    zero_ok: bool

    @property
    def bounds_ok(self) -> bool:
        return self.plus_ok and self.zero_ok


def measure_bound_check(state: TensorState, n: int | None = None) -> MeasureReport:
    """Weights of the uniform-superposition and all-zero outcomes on the
    first register, against the floors n/m and
    2^-l n/m - 2^(1 - l/2) sqrt(n (m - n)) / m.

    A negative zero floor is vacuous but still asserted; small float slack
    covers the exact-equality corners (n = m).
    """
    if n is None:
        n = state.n
    if n is None:
        raise ValueError("state does not record n; pass it explicitly")
    m, l = state.m, state.l
    mat = state.amps.reshape(state.register_dim, -1)
    plus = plus_state(l, with_bot=state.register_dim == (1 << l) + 1)
    plus_weight = float(np.linalg.norm(plus.conj() @ mat) ** 2)
    zero_weight = float(np.linalg.norm(mat[0]) ** 2)
    plus_floor = n / m
    zero_floor = 2.0 ** -l * n / m - 2.0 ** (1 - l / 2) * math.sqrt(n * (m - n)) / m
    return MeasureReport(
        plus_weight, zero_weight, plus_floor, zero_floor,
        plus_ok=plus_weight >= plus_floor - 1e-10,
        zero_ok=zero_weight >= zero_floor - 1e-12,
    )


@dataclass(frozen=True)
class MartingaleReport:
    empirical: float
    bound: float
    sigma: float
    epsilon: float
    trials: int
    mean_zero_count: float
    mean_cum_mean: float

    @property
    def ok(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.sigma


def sequential_measure_martingale(state: TensorState, epsilon: float,
                                  trials: int, rng) -> MartingaleReport:
    """Measure the m registers in order, count all-zero outcomes X_i, and
    compare the empirical tail Pr[sum X_i <= mu' - epsilon] with the
    bounded-difference bound exp(-epsilon^2 / (2m)).

    mu' is the realized cumulative conditional mean: before step i the
    conditional probability of outcome zero given the recorded prefix is
    read off the exact prefix marginals ("conditional replay"), so mu' is
    a per-trial random variable, exactly as the martingale argument wants.
    Environment axes are never measured.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = state.m
    pmf = np.abs(state.amps) ** 2
    for _ in range(state.env_axes):
        pmf = pmf.sum(axis=-1)
    pmf = pmf / pmf.sum()
    marginals = [None] * (m + 1)
    marginals[m] = pmf
    for i in range(m - 1, -1, -1):
        marginals[i] = marginals[i + 1].sum(axis=i)
    cond_zero = []
    for i in range(m):
        joint = marginals[i + 1][..., 0]
        prior = marginals[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            cz = np.where(prior > 0, joint / np.where(prior > 0, prior, 1.0), 0.0)
        cond_zero.append(cz)

    flat = pmf.ravel()
    picks = rng.choice(flat.size, size=trials, p=flat)
    digits = np.unravel_index(picks, pmf.shape)
    zero_count = np.zeros(trials)
    cum_mean = np.zeros(trials)
    for i in range(m):
        zero_count += digits[i] == 0
        table = cond_zero[i]
        cum_mean += table[digits[:i]] if i else float(table)
    empirical = float(np.mean(zero_count <= cum_mean - epsilon))
    bound = math.exp(-epsilon ** 2 / (2.0 * m))
    sigma = math.sqrt(max(bound * (1.0 - bound), 1.0 / trials) / trials)
    return MartingaleReport(empirical, bound, sigma, epsilon, trials,
                            float(zero_count.mean()), float(cum_mean.mean()))


@dataclass(frozen=True)
class ChernoffReport:
    mu: float
    upper_tail_emp: float
    upper_bound: float
    lower_tail_emp: float
    lower_bound: float
    sigma_upper: float
    sigma_lower: float

    @property
    def ok(self) -> bool:
        return (self.upper_tail_emp <= self.upper_bound + 3.0 * self.sigma_upper
                and self.lower_tail_emp <= self.lower_bound + 3.0 * self.sigma_lower)


def chernoff_mc(n: int, p: float, delta: float, trials: int, rng) -> ChernoffReport:
    """Empirical binomial tails against the multiplicative bounds
    exp(-mu delta^2 / 3) and exp(-mu delta^2 / 2)."""
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    mu = n * p
    x = rng.binomial(n, p, size=trials)
    upper_emp = float(np.mean(x >= (1.0 + delta) * mu))
    lower_emp = float(np.mean(x <= (1.0 - delta) * mu))
    ub = math.exp(chernoff_upper_log(mu, delta))
    lb = math.exp(chernoff_lower_log(mu, delta))
    su = math.sqrt(max(ub * (1 - ub), 1.0 / trials) / trials)
    sl = math.sqrt(max(lb * (1 - lb), 1.0 / trials) / trials)
    return ChernoffReport(mu, upper_emp, ub, lower_emp, lb, su, sl)


def _query_op(l: int) -> np.ndarray:
    """Single-point compressed query on the output register and one
    database register: Comp, controlled XOR, Comp."""
    d = 1 << l
    dd = d + 1
    cnot = np.zeros((d * dd, d * dd))
    for y in range(d):
        for yx in range(dd):
            src = y * dd + yx
            dst = ((y ^ yx) * dd + yx) if yx < d else src
            cnot[dst, src] = 1.0
    comp = np.kron(np.eye(d), comp_matrix(l))
    return comp @ cnot @ comp


@dataclass(frozen=True)
class SmokeReport:
    l: int
    domain_size: int
    unitary_defect: float
    empty_db_mass: float
    y_uniform_dev: float
    db_size_excess_mass: float
    same_x_dev: float
    independent_dev: float

    @property
    def ok(self) -> bool:
        return (self.unitary_defect <= 1e-12
                and abs(self.empty_db_mass - 1.0) <= 1e-12
                and self.y_uniform_dev <= 1e-12
                and self.db_size_excess_mass <= 1e-12
                and self.same_x_dev <= 1e-12
                and self.independent_dev <= 1e-12)


def query_unitary_smoke(l: int, domain_size: int) -> SmokeReport:
    """Exact dense checks of the compressed query unitary on a tiny domain.

    Verifies that the full query operator is unitary, that zero queries
    leave the database on the all-marker state, that one classical query
    returns a uniform output, that q queries never grow the database past
    q entries, that two queries at one point agree, and that queries at
    two points are independent uniform, matching a lazily sampled random
    function.
    """
    d = 1 << l
    dd = d + 1
    bot = d
    # the cap is on O's dense size, though only its diagonal blocks are
    # built; _over_cap first, so a huge domain builds no huge power
    if domain_size < 1 or _over_cap(dd, domain_size) \
            or (domain_size * d * dd ** domain_size) ** 2 > AMPLITUDE_CAP:
        raise ValueError("need domain_size >= 1 and a dense operator within AMPLITUDE_CAP")
    dim_rest = d * dd ** domain_size
    op = _query_op(l)

    # O = sum_x |x><x| (x) O^x is block diagonal over the input register, so
    # it is unitary iff each block, the two-register op on axes (Y, D_x), is
    eye = np.eye(dim_rest, dtype=complex)
    cols = eye.reshape((d,) + (dd,) * domain_size + (dim_rest,))
    unitary_defect = 0.0
    for x in range(domain_size):
        block = _apply(op, cols, 0, 1 + x).reshape(dim_rest, dim_rest)
        unitary_defect = max(unitary_defect, float(np.abs(block.conj().T @ block - eye).max()))

    # compressing the uniform superposition over function tables must give
    # the trivial all-marker database: that is the zero-query state
    empty = product_state(domain_size, plus_state(l, with_bot=True))
    comp = comp_matrix(l)
    for ax in range(domain_size):
        empty = _apply(comp, empty, ax)
    empty_db_mass = float(np.abs(empty[(bot,) * domain_size]) ** 2)

    state = np.zeros((d,) + (dd,) * domain_size, dtype=complex)
    state[(0,) + (bot,) * domain_size] = 1.0
    state = _apply(op, state, 0, 1)
    y_marg = np.abs(state.reshape(d, -1)) ** 2
    y_marg = y_marg.sum(axis=1)
    y_uniform_dev = float(np.abs(y_marg - 1.0 / d).max())

    probs = np.abs(state) ** 2
    db_size = (np.indices(probs.shape[1:]) != bot).sum(axis=0)
    db_size_excess_mass = float(probs[:, db_size > 1].sum())

    two = np.zeros((d, d) + (dd,) * domain_size, dtype=complex)
    two[(0, 0) + (bot,) * domain_size] = 1.0
    same = _apply(op, two, 0, 2)
    same = _apply(op, same, 1, 2)
    joint = (np.abs(same) ** 2).reshape(d, d, -1).sum(axis=2)
    target = np.zeros((d, d))
    np.fill_diagonal(target, 1.0 / d)
    same_x_dev = float(np.abs(joint - target).max())

    independent_dev = 0.0
    if domain_size >= 2:
        indep = _apply(op, two, 0, 2)
        indep = _apply(op, indep, 1, 3)
        joint = (np.abs(indep) ** 2).reshape(d, d, -1).sum(axis=2)
        independent_dev = float(np.abs(joint - 1.0 / d ** 2).max())

    return SmokeReport(l, domain_size, unitary_defect, empty_db_mass,
                       y_uniform_dev, db_size_excess_mass, same_x_dev,
                       independent_dev)
