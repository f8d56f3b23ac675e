import math

import numpy as np
import pytest

from qgfourier import (
    FourierCoeffs,
    IrrepData,
    RngSeed,
    ell2_norm,
    growth_report,
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    nonkac_quantity,
    random_coeffs,
    suq2_chain_check,
)
from qgfourier import cli, random_series
from qgfourier.quantum_examples import (
    OVERFLOW_GUARD,
    ChainCheck,
    suq2_chain_table,
)

SUQ2 = make_suq2_dual(0.5, 4)


class TestNonkacQuantity:
    def test_trivial(self):
        f = FourierCoeffs(make_trivial_dual(), {0: np.array([[2.0 - 1.0j]])})
        assert nonkac_quantity(f) == pytest.approx(abs(2 - 1j) ** 2)

    def test_kac_one_dimensional_blocks_equal_squared_ell2(self):
        # with d = n and Q = I the quantity is sum tr(f^* f); it matches the
        # squared ell2 norm exactly when every supported block has n = 1
        from qgfourier import cyclic_group

        dual = cyclic_group(8).dual
        rng = RngSeed(257).generator()
        for _ in range(10):
            f = random_coeffs(dual, rng)
            assert nonkac_quantity(f) == pytest.approx(ell2_norm(f) ** 2, rel=1e-12)

    def test_kac_general_blocks_are_dominated(self):
        dual = make_su2_dual(4)
        rng = RngSeed(258).generator()
        for _ in range(10):
            f = random_coeffs(dual, rng)
            assert nonkac_quantity(f) <= ell2_norm(f) ** 2 * (1.0 + 1e-12)

    def test_deformed_identity_block(self):
        f = FourierCoeffs(SUQ2, {1: np.eye(2)})
        assert nonkac_quantity(f) == pytest.approx((2.5 / 2.0) * 2.5, rel=1e-14)


def loop_chain_check(q, eps, f):
    """Reference route: the chain level by level, one eps at a time."""
    geom = 1.0 / (1.0 - q**eps) ** 2
    lhs = 0.0
    tail = 0.0
    termwise_ok = True
    for label, m in f.support.items():
        k = int(label)
        irrep = f.dual.irrep(label)
        t_k = irrep.q_trace(m)
        d_k = irrep.d
        log_pow = (1.0 - eps) * math.log(d_k)
        if log_pow > math.log(OVERFLOW_GUARD):
            raise OverflowError(f"d_k^(1-eps) at k={k} exceeds the {OVERFLOW_GUARD:g} guard")
        d_pow = math.exp(log_pow)
        lhs += d_pow * t_k
        ratio_term = (d_k / irrep.n) * t_k
        tail += ratio_term
        if d_k < float(np.power(q, float(-k))):
            termwise_ok = False
        if (k + 1) * q ** (eps * k) > geom * (1.0 + 1e-12):
            termwise_ok = False
        if d_pow * t_k > (k + 1) * q ** (eps * k) * ratio_term * (1.0 + 1e-12) + 1e-300:
            termwise_ok = False
    return ChainCheck(lhs=lhs, rhs=geom * tail, termwise_ok=termwise_ok)


EPSILONS = (0.1, 0.5, 1.0)


class TestChainChecksAgainstLoop:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_full_support_is_bit_identical(self, q):
        dual = make_suq2_dual(q, 60)
        rng = RngSeed(269).generator()
        for _ in range(3):
            f = random_coeffs(dual, rng)
            assert [suq2_chain_check(q, eps, f) for eps in EPSILONS] == [
                loop_chain_check(q, eps, f) for eps in EPSILONS]

    def test_partial_support_is_bit_identical(self):
        dual = make_suq2_dual(0.5, 60)
        # out of level order, so the sums must follow the support's order
        f = random_coeffs(dual, RngSeed(271).generator(), labels=[40, 3, 0, 59, 17])
        assert [suq2_chain_check(0.5, eps, f) for eps in EPSILONS] == [
            loop_chain_check(0.5, eps, f) for eps in EPSILONS]

    def test_empty_support(self):
        f = FourierCoeffs(make_suq2_dual(0.5, 60), {})
        assert [suq2_chain_check(0.5, eps, f) for eps in EPSILONS] == [
            ChainCheck(0.0, 0.0, True)] * 3
        assert loop_chain_check(0.5, 0.5, f) == ChainCheck(0.0, 0.0, True)


def table_rows(lhs, rhs, termwise_ok):
    return [ChainCheck(float(a), float(b), bool(ok)) for a, b, ok in zip(lhs, rhs, termwise_ok)]


def trace_table(families):
    return np.array([[f.dual.irrep(label).q_trace(m) for label, m in f.support.items()]
                     for f in families])


class TestChainTable:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_each_row_is_the_loop_on_its_family(self, q):
        dual = make_suq2_dual(q, 60)
        rng = RngSeed(277).generator()
        families = [random_coeffs(dual, rng) for _ in range(4)]
        table = suq2_chain_table(q, EPSILONS, dual.irreps, trace_table(families))
        assert all(part.shape == (len(EPSILONS), len(families)) for part in table)
        for eps, *row in zip(EPSILONS, *table):
            assert table_rows(*row) == [loop_chain_check(q, eps, f) for f in families]

    def test_termwise_is_decided_per_family(self):
        # a negative trace turns the combined comparison round at every level
        # where d_k^{1-eps} < (k+1) q^{eps k} d_k/(k+1)
        dual = make_suq2_dual(0.5, 8)
        t = trace_table([random_coeffs(dual, RngSeed(281).generator())])
        _, _, termwise_ok = suq2_chain_table(0.5, EPSILONS, dual.irreps, np.vstack([t, -t, t]))
        assert termwise_ok.tolist() == [[True, False, True]] * 3

    def test_growth_bound_is_checked_per_level(self):
        # d_k >= q^{-k} is folded into termwise_ok: the d_k of suq2(0.9) lie
        # below 0.3^{-k} from k = 1 on, so every row fails at q = 0.3
        dual = make_suq2_dual(0.9, 8)
        t = trace_table([random_coeffs(dual, RngSeed(283).generator()) for _ in range(2)])
        assert suq2_chain_table(0.9, EPSILONS, dual.irreps, t)[2].all()
        assert not suq2_chain_table(0.3, EPSILONS, dual.irreps, t)[2].any()

    def test_table_must_match_the_levels(self):
        dual = make_suq2_dual(0.5, 8)
        with pytest.raises(ValueError, match="table of traces"):
            suq2_chain_table(0.5, EPSILONS, dual.irreps, np.ones((2, 5)))
        with pytest.raises(ValueError, match="table of traces"):
            suq2_chain_table(0.5, EPSILONS, dual.irreps, np.ones(9))


def raiser(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} called")
    return fail


class TestCorollaryRun:
    CFG = {"seed": 7, "q": 0.5, "kmax": 60, "families": 50}

    def test_forms_no_coefficient_matrix(self, monkeypatch):
        monkeypatch.setattr(cli, "random_coeffs", raiser("random_coeffs"))
        monkeypatch.setattr(random_series, "random_coeffs", raiser("random_coeffs"))
        monkeypatch.setattr(IrrepData, "q_trace", raiser("IrrepData.q_trace"))
        records = cli.run_corollary_suq2(self.CFG, cli.Context())
        assert [(rec["q"], rec["eps"]) for rec in records] == [
            (q, eps) for q in (0.3, 0.5, 0.9) for eps in EPSILONS]
        assert all(rec["ok"] and 0.0 < rec["max_ratio"] <= 1.0 for rec in records)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_gamma_draw_fails_every_record(self, bad, monkeypatch, capsys):
        generator = RngSeed.generator

        class Poisoned:
            """The seeded generator, with the last Gamma variate of each draw spoiled."""

            def __init__(self, rng):
                self.rng = rng

            def standard_gamma(self, shape, size):
                out = self.rng.standard_gamma(shape, size)
                out[-1, -1] = bad
                return out

        monkeypatch.setattr(RngSeed, "generator", lambda seed: Poisoned(generator(seed)))
        code, doc = cli.execute(["corollary-suq2", "--seed", "1", "--kmax", "4", "--families", "3"])
        capsys.readouterr()
        assert code == 1 and doc["verdict"] == "fail"
        assert [rec["ok"] for rec in doc["records"]] == [False] * 9
        assert not any(math.isfinite(rec["max_excess"]) for rec in doc["records"])


class TestChainCheck:
    def test_trivial_block_only(self):
        f = FourierCoeffs(make_suq2_dual(0.5, 1), {0: np.array([[1.0]])})
        res = suq2_chain_check(0.5, 0.5, f)
        assert res.lhs == pytest.approx(1.0)
        assert res.rhs == pytest.approx(1.0 / (1.0 - 0.5**0.5) ** 2)
        assert res.lhs <= res.rhs
        assert res.termwise_ok

    @pytest.mark.parametrize("q,eps", [(0.5, 0.5), (0.9, 0.1), (0.3, 1.0)])
    def test_random_families_long_truncation(self, q, eps):
        dual = make_suq2_dual(q, 60)
        rng = RngSeed(263).generator()
        for _ in range(5):
            f = random_coeffs(dual, rng)
            res = suq2_chain_check(q, eps, f)
            assert res.lhs <= res.rhs * (1.0 + 1e-12)
            assert res.termwise_ok

    def test_domain_errors(self):
        f = FourierCoeffs(SUQ2, {0: np.array([[1.0]])})
        with pytest.raises(ValueError):
            suq2_chain_check(1.5, 0.5, f)
        with pytest.raises(ValueError):
            suq2_chain_check(0.5, 0.0, f)

    def test_overflow_guard(self):
        dual = make_suq2_dual(0.1, 300)
        f = FourierCoeffs(dual, {300: np.eye(301)})
        with pytest.raises(OverflowError):
            suq2_chain_check(0.1, 1e-6, f)
        # through the table too, where eps = 0.5 alone would pass the guard
        top = dual.irrep(300)
        with pytest.raises(OverflowError, match="k=300"):
            suq2_chain_table(0.1, (0.5, 1e-6), [top], [[top.q_trace(np.eye(301))]])


class TestGrowthReport:
    def test_su2_ratios_are_one(self):
        rows = growth_report(make_su2_dual(6))
        assert all(r.ratio == 1.0 for r in rows)
        assert [r.n for r in rows] == list(range(1, 8))

    def test_deformed_growth_bound(self):
        rows = growth_report(make_suq2_dual(0.5, 40), q=0.5)
        for r in rows:
            assert r.d >= 2.0**r.k  # q^{-k} at q = 1/2

    def test_onplus_dimensions_increase(self):
        rows = growth_report(make_onplus_dual(3, 8))
        dims = [r.n for r in rows]
        assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_bad_q(self):
        with pytest.raises(ValueError):
            growth_report(SUQ2, q=1.5)

    def test_bound_failure_is_raised(self):
        # d_1 of suq2(0.9) is 0.9 + 1/0.9 = 2.01, below 0.3^-1
        with pytest.raises(AssertionError, match="growth bound failed at k=1"):
            growth_report(make_suq2_dual(0.9, 8), q=0.3)
