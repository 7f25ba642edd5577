"""The bound engine as it was before its records became named tuples and
its CSV text a join, kept for the tests to compare with: frozen
dataclasses, a ``to_json`` dict behind every CSV row, and ``csv.writer``
for the text. The arithmetic is the original's, operation for operation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter


def _logsumexp(terms) -> float:
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _exp(logv: float) -> float:
    if logv < -745.0:
        return 0.0
    if logv > 709.0:
        return math.inf
    return math.exp(logv)


def _clamp(v: float) -> float:
    return min(v, 1.0)


def chernoff_upper_log(mu: float, delta: float) -> float:
    return -mu * delta * delta / 3.0


def eval_eps_gamma(gamma: float, l: int, k_eff: float, log: bool = False) -> float:
    logv = -(gamma - 2.0 * 2.0 ** -l) * k_eff / 2.0
    return logv if log else _exp(logv)


def eval_mu_lower(k: int, l: int, N: int, gamma: float) -> float:
    if k < 2:
        raise ValueError("k must be at least 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    log_term = abs(math.log2(math.log2(k) / (4.0 * gamma)))
    bracket = N - 1.0 - gamma * (1.0 + 4.0 * 2.0 ** l + log_term) \
        - 4.0 * math.sqrt(2.0 ** l * gamma * N)
    return 2.0 ** -l * k * bracket


def corollary_constraints(k: int, l: int, c_rate: float) -> dict:
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


@dataclass(frozen=True)
class BoundParams:
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


@dataclass(frozen=True)
class BoundReport:
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
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return dict(zip(_JSON_KEYS, _param_values(self.params) + _report_values(self)))


_PARAM_FIELDS = [f.name for f in fields(BoundParams) if f.name != "n_w"]
_REPORT_FIELDS = [f.name for f in fields(BoundReport) if f.name != "params"]
_JSON_KEYS = ["c" if f == "c_rate" else f for f in _PARAM_FIELDS] + _REPORT_FIELDS
_param_values = attrgetter(*_PARAM_FIELDS)
_report_values = attrgetter(*_REPORT_FIELDS)


def eval_closed_form(k: int, l: int, c_rate: float, log: bool = False) -> float:
    if k < 2:
        raise ValueError("k must be at least 2")
    logv = _logsumexp([
        math.log(3.0) - k / (128.0 * c_rate * 2.0 ** l * math.log2(k)),
        math.log(7.0) - k / (8.0 * 2.0 ** l),
    ])
    return logv if log else _exp(logv)


def lift_to_general(eps_det: float, q: int, k: int) -> float:
    if q < 0 or k < 0 or eps_det < 0:
        raise ValueError("inputs must be nonnegative")
    return 4.0 * (q + k) ** 2 * eps_det


def eval_chain(k: int, l: int, c_rate: float, q: int = 0) -> BoundReport:
    if l < 1 or k < 2:
        raise ValueError("need l >= 1 and k >= 2")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if math.log2(q + k) >= 512:
        raise ValueError("q + k must be below 2^512")
    constraints = corollary_constraints(k, l, c_rate)
    warnings = []
    gamma = 4.0 * 2.0 ** -l
    n = round(c_rate * 2.0 ** l * math.log2(k))
    mu = 2.0 ** -l * k * n
    m = float(k) * (n - 1)
    mu_lower = eval_mu_lower(k, l, n, gamma)
    delta = ((1.0 - 8.0 * 2.0 ** -l) * k - (mu - mu_lower)) / (2.0 * mu)
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

    log_eps = _logsumexp([
        log_e_dp,
        math.log(2.0) + 0.5 * log_e_p,
        math.log(7.0) + 0.25 * log_eg_1mgk,
    ])
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

    params = BoundParams(k, l, c_rate, q, gamma, n, mu, m, mu_lower,
                         delta, delta_prime, eta, n_w, n_prime)
    return BoundReport(
        params=params,
        log_eps_dprime=log_e_dp,
        log_eps_prime=log_e_p,
        log_eps_prime_alt=log_e_p_alt,
        log_eps_gamma_k=log_eg_k,
        log_eps_gamma_1mgk=log_eg_1mgk,
        log_eps=log_eps,
        log_closed_form=log_cf,
        eps_dprime=_clamp(_exp(log_e_dp)),
        eps_prime=_clamp(_exp(log_e_p)),
        eps_prime_alt=_clamp(_exp(log_e_p_alt)),
        eps_gamma_k=_clamp(_exp(log_eg_k)),
        eps_gamma_1mgk=_clamp(_exp(log_eg_1mgk)),
        eps=_clamp(eps),
        eps_det=eps_det if vacuous else _clamp(eps_det),
        eps_det_raw=eps_det,
        closed_form=_clamp(_exp(log_cf)),
        eps_ex_raw=eps_ex_raw,
        eps_ex=_clamp(eps_ex_raw),
        applicable=applicable,
        vacuous=vacuous,
        constraints_ok=constraints,
        warnings=warnings,
    )


_CSV_FIELDS = [
    "k", "l", "c", "q", "N", "gamma", "mu", "m", "mu_lower", "delta",
    "delta_prime", "eta", "n_prime", "log_eps_dprime", "log_eps_prime",
    "log_eps_prime_alt", "log_eps_gamma_k", "log_eps_gamma_1mgk", "log_eps",
    "log_closed_form", "eps", "closed_form", "eps_det", "eps_ex",
    "applicable", "vacuous",
]
_csv_values = itemgetter(*_CSV_FIELDS)


def report_csv_rows(reports) -> tuple[list[str], list[list]]:
    return list(_CSV_FIELDS), [list(_csv_values(r.to_json())) for r in reports]


def csv_text(header, rows) -> str:
    """The text ``bounds --grid`` printed: ``csv.writer``'s default dialect."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
