"""Security-bound engine for the grinding-based NIZK.

Evaluates the full extraction-error chain for a prover with a fixed
commitment vector and its lifting to arbitrary provers, entirely in
closed form. All logarithms are base 2 unless a natural log is spelled
out, and every probability is evaluated in natural-log space so exponents
far beyond float range stay exact; linear values are materialized with
underflow to 0 and are clamped to [0, 1] for reporting only.

Evaluation order (fixed for bit-for-bit reproducibility):
gamma = 4 * 2^-l, N = round(c * 2^l * log2 k), mu = 2^-l * k * N,
m = k * (N - 1), mu_lower, delta from
((1 - 8 * 2^-l) * k - (mu - mu_lower)) / (2 mu), delta' = delta * mu /
mu_lower, then the three tail terms, their combination
eps = eps'' + 2 * sqrt(eps') + 7 * eps_gamma^(1/4), eps_det =
eps / (1 - eps) and eps_ex = 4 * (q + k)^2 * eps_det.

The mu_lower log term uses the conservative sign
-gamma * |log2(log2 k / (4 gamma))|, which only ever shrinks the reported
guarantee. A point whose N rounds to 0 is rejected with ValueError.

``BoundParams`` and ``BoundReport`` are immutable named tuples.
``report_csv_rows`` takes a sweep's CSV rows straight from their tuples,
and ``csv_text`` writes them as ``str`` of each cell joined by commas,
with CRLF line ends.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .transform import FischlinParams

__all__ = [
    "BoundParams",
    "BoundReport",
    "chernoff_upper_log",
    "chernoff_lower_log",
    "eval_eps_dprime",
    "eval_eps_gamma",
    "eval_mu_lower",
    "eval_chain",
    "eval_closed_form",
    "corollary_constraints",
    "plan_parameters",
    "lift_to_general",
    "sweep",
    "report_csv_rows",
    "csv_text",
]

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LN7 = math.log(7.0)


def _logsumexp(terms: list) -> float:
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum([math.exp(t - top) for t in terms]))


def _exp(logv: float) -> float:
    if logv < -745.0:
        return 0.0
    if logv > 709.0:
        return math.inf
    return math.exp(logv)


def _clamp(v: float) -> float:
    """min(v, 1.0) without the call: NaN passes through, as it does there."""
    return 1.0 if v > 1.0 else v


def chernoff_upper_log(mu: float, delta: float) -> float:
    """log Pr[X >= (1+delta) mu] <= -mu delta^2 / 3 for Bernoulli sums."""
    return -mu * delta * delta / 3.0


def chernoff_lower_log(mu: float, delta: float) -> float:
    """log Pr[X <= (1-delta) mu] <= -mu delta^2 / 2."""
    return -mu * delta * delta / 2.0


def eval_eps_dprime(k: int, l: int, N: int, delta: float, log: bool = False) -> float:
    """Tail of the zero count over the k*N cells: exp(-delta^2 mu / 3)
    with mu = 2^-l k N."""
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    logv = chernoff_upper_log(2.0 ** -l * k * N, delta)
    return logv if log else _exp(logv)


def eval_eps_gamma(gamma: float, l: int, k_eff: float, log: bool = False) -> float:
    """Compression tail exp(-(gamma - 2 * 2^-l) k_eff / 2); values above 1
    (gamma at or below 2 * 2^-l) are vacuous but still computed."""
    logv = -(gamma - 2.0 * 2.0 ** -l) * k_eff / 2.0
    return logv if log else _exp(logv)


def eval_mu_lower(k: int, l: int, N: int, gamma: float) -> float:
    """Conservative lower bound on the cumulative conditional mean:
    2^-l k [N - 1 - gamma (1 + 4*2^l + |log2(log2 k / (4 gamma))|)
    - 4 sqrt(2^l gamma N)]."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    log_term = abs(math.log2(math.log2(k) / (4.0 * gamma)))
    two_l = 2.0 ** l
    bracket = N - 1.0 - gamma * (1.0 + 4.0 * two_l + log_term) \
        - 4.0 * math.sqrt(two_l * gamma * N)
    return 2.0 ** -l * k * bracket


def corollary_constraints(k: int, l: int, c_rate: float) -> dict:
    """Validity region: l >= 14 and 2^(1/c) <= k <= 2^(2^l / (256 c)).

    Raises ValueError unless c > 0 and k, 2^(l+2) and N = c 2^l log2 k are
    below 2^1024, the range of the floats the chain computes in."""
    if not c_rate > 0:
        raise ValueError("c must be positive")
    log_k = math.log2(k)
    if log_k >= 1024 or l + 2 >= 1024 or \
            log_k > 0 and l + math.log2(c_rate * log_k) >= 1024:
        raise ValueError("k, 2^(l+2) and N = c * 2^l * log2 k must be below 2^1024")
    return {
        "l_ge_14": l >= 14,
        "k_ge_lower": log_k >= 1.0 / c_rate,
        "k_le_upper": log_k <= 2.0 ** l / (256.0 * c_rate),
    }


class BoundParams(NamedTuple):
    """Inputs and the derived quantities of the chain."""

    k: int
    l: int
    c_rate: float
    q: int
    gamma: float
    N: int
    mu: float
    m: float
    mu_lower: float
    delta: float
    delta_prime: float
    eta: float
    n_w: float
    n_prime: float


class BoundReport(NamedTuple):
    """Every intermediate probability of the chain, in log and linear form."""

    params: BoundParams
    log_eps_dprime: float
    log_eps_prime: float
    log_eps_prime_alt: float
    log_eps_gamma_k: float
    log_eps_gamma_1mgk: float
    log_eps: float
    log_closed_form: float
    eps_dprime: float
    eps_prime: float
    eps_prime_alt: float
    eps_gamma_k: float
    eps_gamma_1mgk: float
    eps: float
    eps_det: float
    eps_det_raw: float
    closed_form: float
    eps_ex_raw: float
    eps_ex: float
    applicable: bool
    vacuous: bool
    constraints_ok: dict
    warnings: list

    def to_json(self) -> dict:
        """Every field in declaration order, the parameters first; the rate
        is keyed ``c`` and the intermediate ``n_w`` is left out."""
        return dict(zip(_JSON_KEYS, _param_values(self.params) + self[1:]))


_PARAM_FIELDS = [f for f in BoundParams._fields if f != "n_w"]
_REPORT_FIELDS = list(BoundReport._fields[1:])
_JSON_KEYS = ["c" if f == "c_rate" else f for f in _PARAM_FIELDS] + _REPORT_FIELDS
_param_values = itemgetter(*map(BoundParams._fields.index, _PARAM_FIELDS))


def eval_closed_form(k: int, l: int, c_rate: float, log: bool = False) -> float:
    """Two-term closed form 3 exp(-k / (128 c 2^l log2 k)) +
    7 exp(-k / (8 * 2^l))."""
    if k < 2:
        raise ValueError("k must be at least 2")
    two_l = 2.0 ** l
    logv = _logsumexp([
        _LN3 - k / (128.0 * c_rate * two_l * math.log2(k)),
        _LN7 - k / (8.0 * two_l),
    ])
    return logv if log else _exp(logv)


def eval_chain(k: int, l: int, c_rate: float, q: int = 0) -> BoundReport:
    """Evaluate the full extraction-error chain at (k, l, c, q)."""
    if l < 1 or k < 2:
        raise ValueError("need l >= 1 and k >= 2")
    if q < 0:
        raise ValueError("q must be nonnegative")
    # lift_to_general turns (q + k)^2 into a float; just below 2^512 that
    # square rounds past the float range, but log2 rounds up to 512 there
    if math.log2(q + k) >= 512:
        raise ValueError("q + k must be below 2^512")
    constraints = corollary_constraints(k, l, c_rate)  # also checks c and float range
    n = round(c_rate * 2.0 ** l * math.log2(k))
    if n < 1:
        raise ValueError(f"N = round(c * 2^l * log2 k) is 0 at c = {c_rate!r}, "
                         f"l = {l}, k = {k}: need N >= 1")
    warnings = []
    two_neg_l = 2.0 ** -l
    gamma = 4.0 * two_neg_l
    mu = two_neg_l * k * n
    m = float(k) * (n - 1)
    mu_lower = eval_mu_lower(k, l, n, gamma)
    delta = ((1.0 - 8.0 * two_neg_l) * k - (mu - mu_lower)) / (2.0 * mu)
    applicable = delta > 0.0 and mu_lower > 0.0
    delta_prime = delta * mu / mu_lower if mu_lower > 0 else math.nan
    eta = (1.0 + delta) * mu
    n_w = m - gamma * k
    n_prime = n_w - 2.0 ** (2 + l) * (m - n_w)
    if not applicable:
        warnings.append("delta <= 0 or mu_lower <= 0: chain not applicable")
    if n_prime < 0:
        warnings.append("truncation point n' negative")
    if gamma > 0.5:
        warnings.append("gamma = 4 * 2^-l above 1/2: compression tail undefined")

    log_e_dp = chernoff_upper_log(mu, delta) if applicable else 0.0
    log_e_p = -(delta_prime ** 2) * mu_lower ** 2 / (2.0 * m) if applicable else 0.0
    log_e_p_alt = -(delta_prime ** 2) * mu_lower / 2.0 ** (l + 1) if applicable else 0.0
    log_eg_k = eval_eps_gamma(gamma, l, float(k), log=True)
    log_eg_1mgk = eval_eps_gamma(gamma, l, (1.0 - gamma) * k, log=True)

    log_eps = _logsumexp([log_e_dp, _LN2 + 0.5 * log_e_p, _LN7 + 0.25 * log_eg_1mgk])
    eps = _exp(log_eps)
    vacuous = log_eps >= 0.0
    if vacuous:
        eps_det = math.inf
        warnings.append("eps >= 1: deterministic-commitment bound vacuous")
    elif log_eps < -745.0:
        eps_det = 0.0
    else:
        eps_det = eps / (1.0 - eps)
    eps_ex_raw = lift_to_general(eps_det, q, k) if not vacuous else math.inf
    log_cf = eval_closed_form(k, l, c_rate, log=True)

    # positional: a NamedTuple takes keywords at about twice the cost
    params = BoundParams(k, l, c_rate, q, gamma, n, mu, m, mu_lower,
                         delta, delta_prime, eta, n_w, n_prime)
    return BoundReport(
        params, log_e_dp, log_e_p, log_e_p_alt, log_eg_k, log_eg_1mgk, log_eps, log_cf,
        _clamp(_exp(log_e_dp)), _clamp(_exp(log_e_p)), _clamp(_exp(log_e_p_alt)),
        _clamp(_exp(log_eg_k)), _clamp(_exp(log_eg_1mgk)), _clamp(eps),
        eps_det if vacuous else _clamp(eps_det), eps_det,
        _clamp(_exp(log_cf)), eps_ex_raw, _clamp(eps_ex_raw),
        applicable, vacuous, constraints, warnings)


def lift_to_general(eps_det: float, q: int, k: int) -> float:
    """Extraction error against an arbitrary q-query prover:
    4 (q + k)^2 times the fixed-commitment error."""
    if q < 0 or k < 0 or eps_det < 0:
        raise ValueError("inputs must be nonnegative")
    return 4.0 * (q + k) ** 2 * eps_det


def plan_parameters(k_target: int, c_rate: float, base_space: int) -> dict:
    """Instantiation recipe: l = max(14, ceil(log2 log2 k + log2 c + 8)),
    N = round(c 2^l log2 k), and the repetition count r = ceil(log_base N)
    needed to reach a challenge space of size N over a base protocol with
    ``base_space`` challenges. A recipe that ``FischlinParams`` refuses
    (l above 64, N of 2^32 or more) raises ValueError."""
    if k_target < 2 or base_space < 2:
        raise ValueError("need k >= 2 and a base challenge space >= 2")
    if c_rate <= 0:
        raise ValueError("c must be positive")
    warnings = []
    try:
        l = max(14, math.ceil(math.log2(math.log2(k_target)) + math.log2(c_rate) + 8))
        n = FischlinParams.explicit(k_target, l, c_rate).N
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"c = {c_rate} gives a recipe prove cannot use: {exc}") from None
    r = 1
    cap = base_space
    while cap < n:
        r += 1
        cap *= base_space
    c_eff = n / (2.0 ** l * math.log2(k_target))
    if not math.isclose(c_eff, c_rate, rel_tol=1e-12):
        warnings.append(f"rounding changed the effective rate to {c_eff!r}")
    cons = corollary_constraints(k_target, l, c_rate)
    if not all(cons.values()):
        warnings.append("parameters violate the validity region")
    return {"l": l, "N": n, "r": r, "c_effective": c_eff,
            "constraints_ok": cons, "warnings": warnings}


def sweep(ks, ls, cs, q: int = 0, only_valid: bool = True) -> list[BoundReport]:
    """Chain reports over a (k, l, c) grid, optionally restricted to the
    validity region."""
    out = []
    for l in ls:
        for c in cs:
            for k in ks:
                if only_valid and not all(corollary_constraints(k, l, c).values()):
                    continue
                out.append(eval_chain(k, l, c, q))
    return out


_CSV_FIELDS = [
    "k", "l", "c", "q", "N", "gamma", "mu", "m", "mu_lower", "delta",
    "delta_prime", "eta", "n_prime", "log_eps_dprime", "log_eps_prime",
    "log_eps_prime_alt", "log_eps_gamma_k", "log_eps_gamma_1mgk", "log_eps",
    "log_closed_form", "eps", "closed_form", "eps_det", "eps_ex",
    "applicable", "vacuous",
]
# a report's flat layout: its parameters, then its own fields
_csv_values = itemgetter(*map(
    (["c" if f == "c_rate" else f for f in BoundParams._fields] + _REPORT_FIELDS).index,
    _CSV_FIELDS))


def report_csv_rows(reports) -> tuple[list[str], list[list]]:
    """Header and rows for a CSV dump of a grid sweep."""
    return list(_CSV_FIELDS), [list(_csv_values(r.params + r[1:])) for r in reports]


def csv_text(header: list[str], rows) -> str:
    """The CSV text of ``header`` and ``rows``: ``str`` of each cell joined
    by commas, CRLF after every line. For cells that hold no comma, quote
    or line break (numbers, bools, plain names) it is exactly what
    ``csv.writer``'s default dialect writes."""
    return "".join([",".join(map(str, row)) + "\r\n" for row in [header, *rows]])
