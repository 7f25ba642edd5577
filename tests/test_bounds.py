import dataclasses
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bounds_reference
from fischlin import bounds
from fischlin.bounds import (
    chernoff_lower_log,
    chernoff_upper_log,
    corollary_constraints,
    eval_chain,
    eval_closed_form,
    eval_eps_dprime,
    eval_eps_gamma,
    eval_mu_lower,
    lift_to_general,
    plan_parameters,
    report_csv_rows,
    sweep,
)

FLAGSHIP = dict(k=2 ** 30, l=14, c_rate=1.0)


def valid_grid():
    for l in (14, 16, 18):
        for c in (1.0, 2.0, 4.0):
            for e in range(20, 35, 2):
                k = 2 ** e
                if all(corollary_constraints(k, l, c).values()):
                    yield k, l, c


class TestEpsDoublePrime:
    def test_tiny_delta_is_vacuous(self):
        assert eval_eps_dprime(16, 2, 8, 1e-12) == pytest.approx(1.0)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            eval_eps_dprime(16, 2, 8, 0.0)
        with pytest.raises(ValueError):
            eval_eps_dprime(16, 2, 8, 1.5)

    def test_high_precision_reference(self):
        # delta = 1/(8 c log2 k) at the flagship point, against mpmath
        k, l, n = 2 ** 30, 14, 2 ** 14 * 30
        delta = 1.0 / 240.0
        got_log = eval_eps_dprime(k, l, n, delta, log=True)
        with mpmath.workdps(50):
            mu = mpmath.mpf(2) ** -l * k * n
            expect = -(mpmath.mpf(1) / 240) ** 2 * mu / 3
            assert abs(got_log - float(expect)) <= abs(float(expect)) * 1e-12

    def test_shares_chernoff_code_path(self):
        mu = 2.0 ** -4 * 16 * 256
        assert eval_eps_dprime(16, 4, 256, 0.3, log=True) == \
            chernoff_upper_log(mu, 0.3)


class TestEpsGamma:
    def test_boundary_is_one(self):
        assert eval_eps_gamma(2 * 2.0 ** -4, 4, 100) == 1.0

    def test_flagship_exponent(self):
        # gamma = 4*2^-14, k_eff = 2^30: exponent is exactly 2^16
        assert eval_eps_gamma(4 * 2.0 ** -14, 14, 2 ** 30, log=True) == -65536.0

    def test_vacuous_region_still_computes(self):
        # gamma below the boundary gives a bound above 1, not an error
        assert eval_eps_gamma(0.5, 1, 2, log=True) == pytest.approx(0.5)


class TestMuLower:
    def test_never_exceeds_mu(self):
        rng = random.Random(1)
        for _ in range(300):
            l = rng.randrange(6, 20)
            k = 2 ** rng.randrange(4, 34)
            c = rng.choice([0.5, 1.0, 2.0, 4.0])
            n = max(2, round(c * 2.0 ** l * math.log2(k)))
            gamma = 4.0 * 2.0 ** -l
            assert eval_mu_lower(k, l, n, gamma) <= 2.0 ** -l * k * n

    def test_flagship_gap_below_three_quarters_k(self):
        k, l = 2 ** 30, 14
        n = 2 ** 14 * 30
        mu = 2.0 ** -l * k * n
        gap = mu - eval_mu_lower(k, l, n, 4.0 * 2.0 ** -l)
        assert gap <= 0.75 * k

    def test_ratio_tends_to_one_for_huge_n(self):
        k, l = 2 ** 10, 8
        n = 10 ** 9
        mu = 2.0 ** -l * k * n
        assert eval_mu_lower(k, l, n, 4.0 * 2.0 ** -l) / mu > 0.999

    def test_preconditions(self):
        with pytest.raises(ValueError):
            eval_mu_lower(1, 8, 100, 0.01)
        with pytest.raises(ValueError):
            eval_mu_lower(16, 8, 100, 0.0)


class TestChain:
    def test_flagship_report(self):
        r = eval_chain(q=2 ** 20, **FLAGSHIP)
        p = r.params
        assert p.N == 491520
        assert p.gamma == 4.0 * 2.0 ** -14
        assert p.mu == pytest.approx(2.0 ** 16 * 491520)
        assert 0 < p.delta <= 1 and 0 < p.delta_prime <= 1
        assert p.mu_lower <= p.mu
        assert r.applicable and not r.vacuous
        assert all(r.constraints_ok.values())
        assert r.log_eps <= r.log_closed_form
        assert r.eps <= r.closed_form
        assert r.eps_ex_raw == pytest.approx(
            4 * (2 ** 20 + 2 ** 30) ** 2 * r.eps_det_raw)
        assert r.eps_ex == r.eps_ex_raw  # below 1, no clamping needed

    def test_complicated_exponent_dominates_simple(self):
        # delta'^2 mu_lower >= delta^2 mu follows from delta mu = delta' mu_lower
        for k, l, c in valid_grid():
            p = eval_chain(k, l, c).params
            assert p.delta_prime ** 2 * p.mu_lower >= p.delta ** 2 * p.mu * (1 - 1e-12)

    def test_intermediate_sanity_on_grid(self):
        for k, l, c in valid_grid():
            r = eval_chain(k, l, c)
            assert r.applicable
            assert 0 < r.params.delta <= 1
            assert 0 < r.params.delta_prime <= 1
            assert r.params.n_prime >= 0

    def test_chain_below_closed_form_on_grid(self):
        for k, l, c in valid_grid():
            r = eval_chain(k, l, c)
            assert r.log_eps <= r.log_closed_form + 1e-12, (k, l, c)

    def test_constraint_violation_still_reports(self):
        r = eval_chain(2 ** 20, 10, 1.0)
        assert not r.constraints_ok["l_ge_14"]
        assert math.isfinite(r.log_eps)
        assert r.params.N == round(2.0 ** 10 * 20)

    def test_vacuous_point_flagged(self):
        # small k at large l: the martingale term exceeds 1
        r = eval_chain(2 ** 20, 18, 1.0)
        assert r.vacuous
        assert r.eps == 1.0
        assert r.eps_det == math.inf
        assert any("vacuous" in w for w in r.warnings)
        assert r.log_eps <= r.log_closed_form

    def test_preconditions(self):
        with pytest.raises(ValueError):
            eval_chain(1, 14, 1.0)
        with pytest.raises(ValueError):
            eval_chain(2 ** 20, 0, 1.0)
        with pytest.raises(ValueError):
            eval_chain(2 ** 20, 14, -1.0)

    def test_report_json_serializable(self):
        import json
        json.dumps(eval_chain(2 ** 20, 14, 1.0, q=5).to_json())


class TestClosedForm:
    def test_flagship_value_against_mpmath(self):
        got = eval_closed_form(**FLAGSHIP)
        with mpmath.workdps(60):
            expect = 3 * mpmath.exp(-mpmath.mpf(2 ** 30) / (128 * 2 ** 14 * 30)) \
                + 7 * mpmath.exp(-mpmath.mpf(2 ** 30) / (8 * 2 ** 14))
            assert abs(got - float(expect)) <= float(expect) * 1e-9
        assert got == pytest.approx(1.1619e-7, rel=1e-3)

    def test_monotone_decreasing_in_k(self):
        for l in (14, 16):
            for c in (1.0, 2.0):
                vals = [eval_closed_form(2 ** e, l, c, log=True)
                        for e in range(16, 34, 2)]
                assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_k_flagged_by_constraints(self):
        assert not corollary_constraints(2, 14, 0.25)["k_ge_lower"]
        assert corollary_constraints(4, 14, 0.5)["k_ge_lower"]


class TestPlan:
    def test_flagship_plan(self):
        plan = plan_parameters(2 ** 30, 1.0, 509)
        assert plan["l"] == 14
        assert plan["N"] == 491520
        assert plan["r"] == 3  # 509^2 < 491520 <= 509^3
        assert all(plan["constraints_ok"].values())

    def test_small_k_floors_l(self):
        plan = plan_parameters(4, 1.0, 509)
        assert plan["l"] == 14
        assert plan["constraints_ok"]["k_ge_lower"]

    def test_single_copy_when_base_space_suffices(self):
        plan = plan_parameters(4, 1.0, 10 ** 6)
        assert plan["r"] == 1

    def test_rounding_warning(self):
        plan = plan_parameters(2 ** 30 + 1, 1.0, 509)
        assert any("effective rate" in w for w in plan["warnings"])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            plan_parameters(1, 1.0, 509)
        with pytest.raises(ValueError):
            plan_parameters(16, 0.0, 509)

    @pytest.mark.parametrize("c,why", [(1e6, "N must be"), (1e100, "l must be")])
    def test_recipe_prove_cannot_use(self, c, why):
        # FischlinParams' own ranges: l in [1, 64] and N < 2^32
        with pytest.raises(ValueError, match=why):
            plan_parameters(16, c, 509)


class TestLift:
    def test_smallest_case(self):
        assert lift_to_general(0.01, 0, 1) == pytest.approx(0.04)

    def test_doubling_q_quadruples(self):
        eps = 1e-30
        lo = lift_to_general(eps, 2 ** 40, 8)
        hi = lift_to_general(eps, 2 ** 41, 8)
        assert hi / lo == pytest.approx(4.0, rel=1e-6)

    def test_negligible_on_grid(self):
        # q^2 * negl(k) shape: at q = 2^20 the lifted bound stays tiny on
        # the applicable non-vacuous grid points with large k
        for k, l, c in valid_grid():
            if k < 2 ** 28:
                continue
            r = eval_chain(k, l, c, q=2 ** 20)
            if not r.vacuous:
                assert r.eps_ex_raw == 4 * (2 ** 20 + k) ** 2 * r.eps_det_raw

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lift_to_general(-0.1, 1, 1)


class TestSweep:
    def test_sweep_respects_validity(self):
        reports = sweep([2 ** 20, 2 ** 30], [14], [1.0, 4.0])
        assert all(all(r.constraints_ok.values()) for r in reports)
        everything = sweep([2 ** 20, 2 ** 30], [14], [1.0, 4.0],
                           only_valid=False)
        assert len(everything) == 4 > len(reports)

    def test_constraints_once_per_point(self, monkeypatch):
        # one corollary_constraints call per grid point, kept or skipped,
        # and the kept points' reports as eval_chain gives them
        ks, ls, cs = [2, 2 ** 20, 2 ** 30, 2 ** 40], [5, 14], [1.0, 4.0]
        calls = []
        original = bounds.corollary_constraints
        monkeypatch.setattr(bounds, "corollary_constraints",
                            lambda *point: calls.append(point) or original(*point))
        reports = sweep(ks, ls, cs)
        assert len(calls) == len(ks) * len(ls) * len(cs)
        monkeypatch.undo()
        assert 0 < len(reports) < len(calls)
        assert reports == [eval_chain(k, l, c) for l in ls for c in cs for k in ks
                           if all(corollary_constraints(k, l, c).values())]

    @pytest.mark.parametrize("ks,ls,cs,q,error", [
        ([2 ** 30], [14], [1.0], -1, "q must be nonnegative"),
        ([0], [14], [1.0], 0, "math domain error"),
        ([2 ** 30], [14], [0.0], 0, "c must be positive"),
        ([2 ** 30], [14], [1.0], 2 ** 512, "q \\+ k must be below 2\\^512")])
    def test_errors(self, ks, ls, cs, q, error):
        with pytest.raises(ValueError, match=error):
            sweep(ks, ls, cs, q)

    def test_csv_rows(self):
        header, rows = report_csv_rows(sweep([2 ** 24], [14], [1.0]))
        assert "log_eps" in header and len(rows) == 1
        assert len(rows[0]) == len(header)


def _outcome(module, k, l, c, q):
    try:
        return module.eval_chain(k, l, c, q)
    except Exception as exc:
        return exc


def _field_reprs(report):
    """(name, repr) of every field, the parameters first: repr tells NaN
    and -0.0 apart where == would not."""
    return [(f.name, repr(getattr(report.params, f.name)))
            for f in dataclasses.fields(bounds_reference.BoundParams)] + \
        [(f.name, repr(getattr(report, f.name)))
         for f in dataclasses.fields(bounds_reference.BoundReport) if f.name != "params"]


class TestAgainstReference:
    """The engine against ``bounds_reference``, the frozen-dataclass engine
    it replaced: the same fields to the bit and the same CSV text."""

    @settings(max_examples=400, deadline=None)
    @given(k=st.one_of(st.integers(1, 80).map(lambda e: 2 ** e), st.integers(2, 2 ** 80)),
           l=st.integers(1, 40),
           # moderate rates reach the non-vacuous region; the full range
           # reaches N = 0 and N past the float range
           c=st.one_of(st.floats(0.25, 16.0),
                       st.floats(min_value=5e-324, max_value=1.7e308)),
           q=st.one_of(st.just(0), st.integers(0, 2 ** 70)))
    @example(k=2, l=1, c=0.5, q=0)  # N = 1, in the pinned grid
    @example(k=2, l=1, c=0.1, q=0)  # N = 0
    @example(k=4, l=14, c=0.00001, q=0)  # N = 0
    @example(k=2 ** 62, l=24, c=8.0, q=2 ** 70)
    @example(k=3, l=40, c=1e300, q=0)  # N beyond the float range
    @example(k=2, l=4, c=1e154, q=0)  # delta' and mu_lower squared overflow
    def test_fields_and_csv_match(self, k, l, c, q):
        want = _outcome(bounds_reference, k, l, c, q)
        got = _outcome(bounds, k, l, c, q)
        if isinstance(want, ZeroDivisionError):
            # the reference divided by mu = 0 where N rounds to 0
            assert isinstance(got, ValueError) and str(got).startswith("N = round(")
            return
        if isinstance(want, OverflowError):
            # the reference squared delta' or mu_lower past the float range
            assert isinstance(got, ValueError) and str(got).startswith("delta' or mu_lower squared")
            return
        if isinstance(want, Exception):
            assert type(got) is type(want)
            return
        assert _field_reprs(got) == _field_reprs(want)
        assert bounds.csv_text(*report_csv_rows([got])) == \
            bounds_reference.csv_text(*bounds_reference.report_csv_rows([want]))

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0,
                                   1.0000000000000002, 0.9999999999999999, 5e-324])
    def test_helpers_match_on_special_values(self, v):
        assert repr(bounds._clamp(v)) == repr(bounds_reference._clamp(v))
        for terms in ([v, 0.0], [-math.inf, v, -1.0], [v, v, v]):
            assert repr(bounds._logsumexp(terms)) == repr(bounds_reference._logsumexp(terms))

    def test_csv_text_special_cells(self):
        header = ["k", "x", "flag"]
        rows = [[2 ** 64 + 1, math.nan, True], [2 ** 200, math.inf, False],
                [0, -math.inf, True], [-3, -0.0, False], [1, 5e-324, True],
                [2, 1.7976931348623157e308, False], [3, 0.1, True]]
        text = bounds.csv_text(header, rows)
        assert text == bounds_reference.csv_text(header, rows)
        assert text.endswith("\r\n") and text.count("\r\n") == len(rows) + 1

    def test_records_are_immutable(self):
        r = eval_chain(**FLAGSHIP)
        with pytest.raises(AttributeError):
            r.eps = 0.5
        with pytest.raises(AttributeError):
            r.params.delta = 0.5
        assert bounds.BoundReport._field_defaults == {}  # no shared warnings list
        assert eval_chain(**FLAGSHIP).warnings is not r.warnings


class TestChernoffHelpers:
    def test_upper_and_lower_shapes(self):
        assert chernoff_upper_log(300.0, 0.5) == -300.0 * 0.25 / 3
        assert chernoff_lower_log(300.0, 0.5) == -300.0 * 0.25 / 2
