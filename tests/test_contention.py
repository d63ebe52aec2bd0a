from fractions import Fraction

import pytest

from agentsim.contention import (
    CpuContentionParams,
    GpuSaturationParams,
    ThroughputCurve,
    calibrate_cpu,
    calibrate_gpu,
    cpu_rate,
    fit_cpu_watts,
    fit_dynamic_watts,
    gain_ratios,
    gpu_rate,
    select_bcap,
    thread_pool_rate,
)
from agentsim.errors import ConfigurationError, InfeasibleModelError
from exact_engine import exact_params


def params(cores=96, kappa=0.0):
    return CpuContentionParams(logical_cores=cores, oversub_kappa=kappa)


class TestCpuRate:
    def test_undersubscribed_is_full_speed(self):
        assert cpu_rate(64.0, params()) == 1.0

    def test_oversubscription_penalty(self):
        # 2.9 s of work at this rate takes 6.30 s
        rate = cpu_rate(128.0, params(kappa=1.888))
        assert rate == pytest.approx(0.4603, abs=1e-4)
        assert 2.9 / rate == pytest.approx(6.30, abs=5e-3)

    def test_zero_kappa_is_fair_share(self):
        assert cpu_rate(2 * 96.0, params()) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.888])
    def test_monotone_nonincreasing_and_bounded(self, kappa):
        p = params(kappa=kappa)
        rates = [cpu_rate(load, p) for load in [0, 48, 96, 97, 128, 200, 1000]]
        assert all(0 < r <= 1 for r in rates)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_kappa_zero_equals_min_formula(self):
        p = params()
        for load in [1.0, 50.0, 96.0, 100.0, 300.0]:
            assert cpu_rate(load, p) == pytest.approx(min(1.0, 96.0 / load), abs=1e-15)


class TestGpuRate:
    def test_single_request_full_speed(self):
        assert gpu_rate(1, GpuSaturationParams(b_half=64.0)) == 1.0

    def test_latency_ratio_128_vs_64(self):
        p = GpuSaturationParams(b_half=64.0)
        # latency ~ 1/rate: L(128)/L(64) = 192/128 = 1.5, the 3.9/2.6 pair
        assert gpu_rate(64, p) / gpu_rate(128, p) == pytest.approx(1.5, abs=1e-12)

    def test_absolute_latency_at_64(self):
        p = GpuSaturationParams(b_half=64.0)
        work = 1.32
        assert work / gpu_rate(64, p) == pytest.approx(2.60, abs=5e-3)

    def test_spill_penalty(self):
        p = GpuSaturationParams(b_half=64.0, kv_capacity=1000, spill_rate_factor=0.25)
        assert gpu_rate(8, p, kv_in_use=1001) == pytest.approx(gpu_rate(8, p) * 0.25)
        assert gpu_rate(8, p, kv_in_use=1000) == gpu_rate(8, p)

    def test_monotone_nonincreasing(self):
        p = GpuSaturationParams(b_half=64.0)
        rates = [gpu_rate(b, p) for b in [1, 2, 16, 64, 128, 512]]
        assert all(0 < r <= 1 for r in rates)
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestGainRatios:
    def test_single_doubling(self):
        r = gain_ratios(ThroughputCurve({64: 100.0, 128: 109.0}))
        assert r == {128: pytest.approx(1.09)}

    def test_two_doublings(self):
        r = gain_ratios(ThroughputCurve({32: 100.0, 64: 115.0, 128: 124.2}))
        assert r[64] == pytest.approx(1.15)
        assert r[128] == pytest.approx(1.08)

    def test_flat_curve(self):
        r = gain_ratios(ThroughputCurve({2: 7.0, 4: 7.0}))
        assert r == {4: 1.0}

    def test_missing_half_points_omitted(self):
        r = gain_ratios(ThroughputCurve({16: 10.0, 32: 12.0, 128: 20.0}))
        assert set(r) == {32}

    def test_no_doublings_is_error(self):
        with pytest.raises(ConfigurationError):
            gain_ratios(ThroughputCurve({16: 10.0, 48: 12.0}))

    def test_a_curve_is_a_hashable_read_only_copy(self):
        # before, a curve held the caller's dict: it had no hash, and a
        # change to the dict after validation changed the curve
        points = {1: 1.0, 2: 1.5}
        curve = ThroughputCurve(points)
        assert hash(curve) == hash(ThroughputCurve({1: 1.0, 2: 1.5}))
        assert curve != ThroughputCurve({1: 1.0, 2: 1.6})
        points[4] = 0.0
        assert dict(curve.points) == {1: 1.0, 2: 1.5}
        with pytest.raises(TypeError):
            curve.points[4] = 2.0

    def test_scale_invariance(self):
        base = {16: 50.0, 32: 80.0, 64: 100.0, 128: 110.0}
        r1 = gain_ratios(ThroughputCurve(base))
        r2 = gain_ratios(ThroughputCurve({b: 3.7 * t for b, t in base.items()}))
        for b in r1:
            assert r1[b] == pytest.approx(r2[b], rel=1e-12)
        assert select_bcap(r1, 1.1) == select_bcap(r2, 1.1)


class TestSelectBcap:
    def test_langchain_row(self):
        assert select_bcap({64: 1.52, 128: 1.09}, 1.1) == 64

    def test_strict_inequality_boundary(self):
        # a ratio of exactly 1.10 is rejected
        assert select_bcap({64: 1.32, 128: 1.10}, 1.1) == 64

    def test_all_saturated_falls_back_to_base(self):
        assert select_bcap({2: 1.05, 4: 1.02}, 1.1) == 1

    def test_empty_is_error(self):
        with pytest.raises(ConfigurationError):
            select_bcap({}, 1.1)

    def test_result_never_exceeds_largest_measured(self):
        ratios = {8: 1.4, 16: 1.3, 32: 1.2, 64: 1.15, 128: 1.05}
        assert select_bcap(ratios, 1.1) == 64
        assert select_bcap(ratios, 1.1) <= max(ratios)


class TestCalibrateCpu:
    def test_single_point_exact(self):
        fit = calibrate_cpu([(128, 96, 2.9, 6.3)])
        assert fit.oversub_kappa == pytest.approx(1.888, abs=1e-3)

    def test_fair_share_data_gives_zero(self):
        fit = calibrate_cpu([(128, 96, 2.9, 3.867)])
        assert fit.oversub_kappa == pytest.approx(0.0, abs=1e-3)

    def test_double_load_hand_solve(self):
        fit = calibrate_cpu([(192, 96, 1.0, 4.0)])
        assert fit.oversub_kappa == pytest.approx(1.0, abs=1e-12)

    def test_undersubscribed_only_is_unidentifiable(self):
        with pytest.raises(InfeasibleModelError):
            calibrate_cpu([(64, 96, 2.9, 2.9), (32, 96, 1.0, 1.0)])

    def test_a_load_over_cores_whose_ratio_rounds_to_one_is_unidentifiable(self):
        # 2**60 - 1 cores, which no float holds: load / cores is 1.0, so x is 0
        with pytest.raises(InfeasibleModelError, match="kappa is unidentifiable"):
            calibrate_cpu([(2.0 ** 60, 2 ** 60 - 1, 1.0, 2.0)])

    # a kappa that overflows, and one that is inf / inf, which max(0, kappa)
    # would turn into 0
    @pytest.mark.parametrize("observation", [(128, 96, 1e-300, 1e300), (1e300, 1, 1e-300, 1e300)])
    def test_kappa_out_of_a_floats_range_is_infeasible(self, observation):
        with pytest.raises(InfeasibleModelError, match="out of a float's range"):
            calibrate_cpu([observation])

    def test_round_trip_through_rate(self):
        fit = calibrate_cpu([(128, 96, 2.9, 6.3)])
        assert 2.9 / cpu_rate(128.0, fit) == pytest.approx(6.3, rel=1e-12)

    def test_observations_of_two_hosts_are_refused(self):
        # one kappa fitted over both would be written as the 32-core host's
        with pytest.raises(ConfigurationError, match=r"core counts \[32, 96\], not one host"):
            calibrate_cpu([(128, 96, 2.9, 6.3), (64, 32, 2.9, 7.0)])


class TestThreadPoolRate:
    @pytest.mark.parametrize("n", [1, 100, 200, 400])
    def test_the_pool_width_is_taken_as_given(self, n):
        # simulate clamps the width to the core count once per run; a width
        # above the 96 cores here is used as it is
        cpu = CpuContentionParams(logical_cores=96, gil_serial_fraction=0.02)
        assert thread_pool_rate(n, 200, cpu) == min(1.0, 200 / n) / (1.0 + 0.02 * (n - 1))


def is_exact(got, want) -> bool:
    """Whether ``got`` is ``want`` exactly: a Fraction, or the float 1.0 for a
    rate of exactly 1."""
    return got == want and (type(got) is Fraction or type(got) is float and got == 1)


class TestExactArguments:
    """Each rate function keeps ``Fraction`` arguments exact, and gives float
    arguments a float, bit for bit the one its formula written with float
    constants (``1.0 / x``, ``min(1.0, ...)``) gives."""

    CPU = CpuContentionParams(logical_cores=8, oversub_kappa=0.3, gil_serial_fraction=0.0126)
    GPU = GpuSaturationParams(b_half=4.0, kv_capacity=1000, spill_rate_factor=0.25)

    @pytest.mark.parametrize("load", [0.0, 5.5, 8.0, 8.5, 13.3, 1e6])
    def test_cpu_rate(self, load):
        x = Fraction(load) / 8
        want = 1 if x <= 1 else (1 / x) / (1 + Fraction(0.3) * (x - 1))
        assert is_exact(cpu_rate(Fraction(load), exact_params(self.CPU)), want)
        got = cpu_rate(load, self.CPU)
        x = load / 8
        assert type(got) is float
        assert got.hex() == (1.0 if x <= 1 else (1.0 / x) / (1.0 + 0.3 * (x - 1.0))).hex()

    @pytest.mark.parametrize("n, kv", [(1, 0), (1, 1001), (3, 1000), (3, 1001), (17, 0)])
    def test_gpu_rate(self, n, kv):
        want = (1 + Fraction(4.0)) / (n + Fraction(4.0)) * (Fraction(0.25) if kv > 1000 else 1)
        assert is_exact(gpu_rate(n, exact_params(self.GPU), kv), want)
        got = gpu_rate(n, self.GPU, kv)
        assert type(got) is float
        assert got.hex() == ((1.0 + 4.0) / (n + 4.0) * (0.25 if kv > 1000 else 1.0)).hex()

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_thread_pool_rate(self, n):
        want = min(1, Fraction(8, n)) / (1 + Fraction(0.0126) * (n - 1))
        assert is_exact(thread_pool_rate(n, Fraction(8), exact_params(self.CPU)), want)
        got = thread_pool_rate(n, 8, self.CPU)
        assert type(got) is float
        assert got.hex() == (min(1.0, 8 / n) / (1.0 + 0.0126 * (n - 1))).hex()


class TestCalibrateGpu:
    def test_reference_pair(self):
        b_half, work = calibrate_gpu(64, 2.6, 128, 3.9)
        assert b_half == pytest.approx(64.0, rel=1e-12)
        assert work == pytest.approx(1.32, abs=5e-3)

    def test_zero_benefit_edge_is_infeasible(self):
        with pytest.raises(InfeasibleModelError):
            calibrate_gpu(1, 1.0, 2, 2.0)

    def test_sublinear_pair(self):
        b_half, work = calibrate_gpu(2, 1.0, 4, 1.5)
        assert b_half == pytest.approx(2.0, rel=1e-12)
        assert work == pytest.approx(0.75, rel=1e-12)

    def test_super_linear_is_infeasible(self):
        with pytest.raises(InfeasibleModelError):
            calibrate_gpu(2, 1.0, 4, 0.9)

    @pytest.mark.parametrize(
        "a,la,b,lb", [(64, 2.6, 128, 3.9), (2, 1.0, 4, 1.5), (8, 0.5, 32, 1.1)]
    )
    def test_fit_reproduces_observations(self, a, la, b, lb):
        b_half, work = calibrate_gpu(a, la, b, lb)
        p = GpuSaturationParams(b_half=b_half)
        assert work / gpu_rate(a, p) == pytest.approx(la, rel=1e-9)
        assert work / gpu_rate(b, p) == pytest.approx(lb, rel=1e-9)


class TestFitCpuWatts:
    @pytest.mark.parametrize(
        "w_core,w_pkg,integrals",
        [(11.0, 0.0, (2.0, 64.0, 2.0, 4.0)), (0.0, 5.0, (1.0, 8.0, 3.0, 5.0)),
         (3.5, 2.25, (3.804, 486.912, 4.0, 4.0))],
    )
    def test_recovers_generating_watts(self, w_core, w_pkg, integrals):
        busy_s, busy_l, active_s, active_l = integrals
        got = fit_cpu_watts(
            w_core * busy_s + w_pkg * active_s, w_core * busy_l + w_pkg * active_l,
            busy_s, busy_l, active_s, active_l,
        )
        assert got == pytest.approx((w_core, w_pkg), abs=1e-12)

    # FreshQA on the 128-thread host: 3.804 busy core-s per task and 4.0 s
    # of runnable host work at both batch sizes
    @pytest.mark.parametrize("energy_large", [22.0 * 130, 21.0])
    def test_ratio_outside_integral_ratios_is_infeasible(self, energy_large):
        with pytest.raises(InfeasibleModelError):
            fit_cpu_watts(22.0, energy_large, 3.804, 486.912, 4.0, 4.0)

    def test_proportional_integrals_are_unidentifiable(self):
        with pytest.raises(InfeasibleModelError):
            fit_cpu_watts(10.0, 20.0, 1.0, 2.0, 3.0, 6.0)

    # a determinant of inf - inf, and an infinite one, which would give 0 W
    @pytest.mark.parametrize("integrals", [(3.804e300, 4.86912e302, 4e300, 4e300),
                                           (1e200, 1.0, 1.0, 1e200)])
    def test_determinant_out_of_a_floats_range_is_infeasible(self, integrals):
        with pytest.raises(InfeasibleModelError, match="out of a float's range"):
            fit_cpu_watts(22.0, 1807.0, *integrals)


@pytest.mark.parametrize("call, error, message", [
    (lambda: cpu_rate(-1, params()), ConfigurationError, "active_cpu_load must be >= 0"),
    (lambda: gpu_rate(0, GpuSaturationParams()), ConfigurationError,
     "resident_batch must be >= 1"),
    (lambda: gpu_rate(1, GpuSaturationParams(), kv_in_use=-1), ConfigurationError,
     "kv_in_use must be >= 0"),
    (lambda: thread_pool_rate(0, 4, params()), ConfigurationError, "n_active must be >= 1"),
    (lambda: select_bcap({128: 1.5}, lam=1.0), ConfigurationError, "threshold must be > 1"),
    (lambda: fit_dynamic_watts(0, 1.0, 1.0, 1.0), InfeasibleModelError,
     "energy endpoints and integrals must be > 0"),
    # integral products that underflow to 0 and overflow, an energy product that overflows
    (lambda: fit_dynamic_watts(86.0, 2307.0, 1e-200, 1e-200), InfeasibleModelError,
     "integral product 0.0 is out of a float's range"),
    (lambda: fit_dynamic_watts(86.0, 2307.0, 1e200, 1e200), InfeasibleModelError,
     "integral product inf is out of a float's range"),
    (lambda: fit_dynamic_watts(1e200, 1.5e201, 2.0, 30.0), InfeasibleModelError,
     "dynamic watts fit inf is out of a float's range"),
], ids=["cpu_rate_negative_load", "gpu_rate_empty_batch", "gpu_rate_negative_kv",
        "thread_pool_rate_no_stage", "select_bcap_threshold_one", "fit_dynamic_watts_zero",
        "fit_dynamic_watts_integrals_underflow", "fit_dynamic_watts_integrals_overflow",
        "fit_dynamic_watts_energies_overflow"])
def test_argument_outside_the_domain_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
