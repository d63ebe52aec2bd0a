"""Resource contention models: CPU oversubscription, GPU batch saturation,
KV-cache pressure, dynamic energy, and throughput-gain cap selection.

All models are pure functions over immutable parameter records, so they can
be evaluated concurrently and are trivially replayable. The rate functions'
constants are ints, so ``Fraction`` arguments (parameters and pool width
too) give an exact rate, or ``1.0`` where it is exactly 1.
"""

from __future__ import annotations

import math
from operator import mul
from types import MappingProxyType

from .errors import ConfigurationError, InfeasibleModelError
from .frozen import Frozen, is_real, left_sum, whole_problem


class CpuContentionParams(Frozen):
    """CPU-side contention knobs.

    ``oversub_kappa`` is the linear context-switch penalty applied on top of
    fair sharing once runnable load exceeds the logical core count.
    ``gil_serial_fraction`` only matters for thread-pool execution.
    """

    __slots__ = ("logical_cores", "oversub_kappa", "gil_serial_fraction")

    def __init__(self, logical_cores: int = 96, oversub_kappa: float = 0.0,
                 gil_serial_fraction: float = 0.0):
        if problem := whole_problem("logical_cores", logical_cores, 1):
            raise ConfigurationError(problem)
        if not (is_real(oversub_kappa) and oversub_kappa >= 0):
            raise ConfigurationError("oversub_kappa must be >= 0")
        if not (is_real(gil_serial_fraction) and 0.0 <= gil_serial_fraction <= 1.0):
            raise ConfigurationError("gil_serial_fraction must be in [0, 1]")
        self._init(logical_cores, float(oversub_kappa), float(gil_serial_fraction))


class GpuSaturationParams(Frozen):
    """Half-saturation throughput curve plus a hard KV spill penalty."""

    __slots__ = ("b_half", "kv_bytes_per_token", "kv_capacity", "spill_rate_factor")

    def __init__(self, b_half: float = 64.0, kv_bytes_per_token: int = 131072,
                 kv_capacity: int = 34359738368, spill_rate_factor: float = 0.25):
        if not (is_real(b_half) and b_half > 0):
            raise ConfigurationError("b_half must be > 0")
        if not (is_real(spill_rate_factor) and 0.0 < spill_rate_factor <= 1.0):
            raise ConfigurationError("spill_rate_factor must be in (0, 1]")
        if problem := (whole_problem("kv_bytes_per_token", kv_bytes_per_token, 0)
                       or whole_problem("kv_capacity", kv_capacity, 1)):
            raise ConfigurationError(problem)
        self._init(float(b_half), kv_bytes_per_token, kv_capacity, float(spill_rate_factor))


class EnergyParams(Frozen):
    """Dynamic power constants, in watts above idle: energy totals are
    idle-subtracted by definition.

    CPU dynamic power is ``cpu_dyn_w_per_core`` per busy core plus the
    package/uncore draw ``cpu_pkg_dyn_w`` while any host work is runnable;
    the package term is the CPU counterpart of ``gpu_dyn_w``, which applies
    while at least one request is resident.
    """

    __slots__ = ("cpu_dyn_w_per_core", "cpu_pkg_dyn_w", "gpu_dyn_w")

    def __init__(self, cpu_dyn_w_per_core: float = 0.0, cpu_pkg_dyn_w: float = 0.0,
                 gpu_dyn_w: float = 0.0):
        values = (cpu_dyn_w_per_core, cpu_pkg_dyn_w, gpu_dyn_w)
        for name, value in zip(self.__slots__, values):
            if not (is_real(value) and value >= 0):
                raise ConfigurationError(f"{name} must be >= 0")
        self._init(*map(float, values))


class ContentionModels(Frozen):
    """Bundle of all calibrated model parameters for one host profile."""

    __slots__ = ("name", "cpu", "gpu", "energy")

    def __init__(self, name: str = "default",
                 cpu: CpuContentionParams = CpuContentionParams(),
                 gpu: GpuSaturationParams = GpuSaturationParams(),
                 energy: EnergyParams = EnergyParams()):
        if type(name) is not str:
            raise ConfigurationError(f"models name must be a str, not {name!r}")
        for field, value, kind in (("cpu", cpu, CpuContentionParams),
                                   ("gpu", gpu, GpuSaturationParams),
                                   ("energy", energy, EnergyParams)):
            if not isinstance(value, kind):
                raise ConfigurationError(f"models {field}: {value!r} is no {kind.__name__}")
        self._init(name, cpu, gpu, energy)


class ThroughputCurve(Frozen):
    """Measured throughput (requests/s) per batch size, ascending; a read-only copy."""

    __slots__ = ("points",)

    def __init__(self, points: dict[int, float]):
        points = MappingProxyType(dict(points))
        for key in points:
            if problem := whole_problem("throughput curve keys", key, 1):
                raise ConfigurationError(problem)
        if list(points) != sorted(points):
            raise ConfigurationError("throughput curve keys must be increasing")
        if not all(is_real(v) and v > 0 for v in points.values()):
            raise ConfigurationError("throughput values must be > 0")
        self._init(points)

    def _key(self) -> tuple:  # a mapping proxy has no hash; its items do
        return tuple(self.points.items())

    def __reduce__(self):  # nor can it be pickled; a copy of its dict can
        return type(self), (dict(self.points),)


def cpu_rate(active_cpu_load: float, params: CpuContentionParams) -> float:
    """Per-worker execution rate given the current runnable CPU load.

    Below saturation every worker runs at full speed. Beyond it, fair
    sharing (cores/load) is degraded further by a linear oversubscription
    penalty: rate = (cores/load) / (1 + kappa * (load/cores - 1)).
    """
    if active_cpu_load < 0:
        raise ConfigurationError("active_cpu_load must be >= 0")
    cores = params.logical_cores
    if active_cpu_load <= cores:
        return 1.0
    x = active_cpu_load / cores
    return (1 / x) / (1 + params.oversub_kappa * (x - 1))


def gpu_rate(resident_batch: int, params: GpuSaturationParams, kv_in_use: int = 0) -> float:
    """Per-request GPU execution rate at the given residency.

    Normalized so a single resident request runs at the profiled speed:
    rate(b) = (1 + b_half) / (b + b_half). When resident KV bytes exceed
    capacity the rate is additionally multiplied by the spill factor.
    """
    if resident_batch < 1:
        raise ConfigurationError("resident_batch must be >= 1")
    if kv_in_use < 0:
        raise ConfigurationError("kv_in_use must be >= 0")
    rate = (1 + params.b_half) / (resident_batch + params.b_half)
    if kv_in_use > params.kv_capacity:
        rate *= params.spill_rate_factor
    return rate


def thread_pool_rate(n_active: int, pool_size: int, params: CpuContentionParams) -> float:
    """Per-stage rate for CPU work multiplexed over a shared thread pool.

    ``n_active`` stages share ``pool_size`` workers, a width taken as given
    (``engine.simulate`` clamps it to the core count once per run), and pay
    an interpreter-lock serialization penalty that grows with the number of
    live threads: rate = min(1, pool/n) / (1 + f * (n - 1)).
    """
    if n_active < 1:
        raise ConfigurationError("n_active must be >= 1")
    # min(1, pool/n) without the builtin call, which costs as much as the
    # rest of the function; where pool < n rounds pool/n up to 1.0, min's 1
    # divides to the same float
    share = pool_size / n_active if pool_size < n_active else 1
    return share / (1 + params.gil_serial_fraction * (n_active - 1))


def gain_ratios(curve: ThroughputCurve) -> dict[int, float]:
    """Throughput gain ratio r(B) = T(B) / T(B/2) for every B whose half
    point is present in the curve."""
    ratios: dict[int, float] = {}
    for b, t in curve.points.items():
        half = b // 2
        if b % 2 == 0 and half in curve.points:
            ratios[b] = t / curve.points[half]
    if not ratios:
        raise ConfigurationError(
            "curve needs at least two points at consecutive doublings"
        )
    return ratios


def select_bcap(ratios: dict[int, float], lam: float = 1.1) -> int:
    """Largest batch size whose gain ratio strictly exceeds the threshold.

    Strict inequality matters: a ratio exactly equal to the threshold is a
    rejection. If no batch size qualifies, fall back to the curve's base
    point (the smallest batch size present in the ratio map, halved).
    """
    if not ratios:
        raise ConfigurationError("empty ratio map")
    if lam <= 1.0:
        raise ConfigurationError("threshold must be > 1")
    qualifying = [b for b, r in ratios.items() if r > lam]
    if qualifying:
        return max(qualifying)
    return min(ratios) // 2


def calibrate_cpu(
    observations: list[tuple[float, int, float, float]],
) -> CpuContentionParams:
    """Least-squares fit of the oversubscription penalty coefficient.

    Each observation is (load, cores, base_s, observed_s), all > 0, and a
    fit describes one host, so all name one core count. Only oversubscribed
    observations (a load / cores above 1.0 as a float: ``load > cores`` may
    round to 1.0) identify kappa; with a single one the fit is exact. Data
    with none is rejected because kappa is then unidentifiable, and a kappa
    out of a float's range is infeasible. Both sums fold left to right.
    """
    hosts = sorted({cores for _, cores, _, _ in observations})
    if len(hosts) > 1:
        raise ConfigurationError(f"CPU observations name core counts {hosts}, not one host")
    xs, ys = [], []
    for load, cores, base_s, observed_s in observations:
        if min(load, cores, base_s, observed_s) <= 0:
            raise ConfigurationError("load, cores, base_s and observed_s must be > 0")
        ratio = load / cores
        if ratio <= 1.0:
            continue
        x = ratio - 1.0
        fair_share_latency = base_s * ratio
        y = observed_s / fair_share_latency - 1.0
        xs.append(x)
        ys.append(y)
    if not xs:
        raise InfeasibleModelError(
            "kappa is unidentifiable: no observation with load / cores above 1.0"
        )
    kappa = left_sum(map(mul, xs, ys)) / left_sum(map(mul, xs, xs))
    if not math.isfinite(kappa):
        raise InfeasibleModelError(f"kappa fit {kappa!r} is out of a float's range")
    return CpuContentionParams(logical_cores=int(hosts[0]), oversub_kappa=max(0.0, kappa))


def solve_b_half(batch_a: int, a: float, batch_b: int, b: float,
                 what: str) -> tuple[float, float]:
    """(b_half, b/a) for a ``what`` measure (a latency, or a GPU busy time)
    that grows as batch + b_half, measured as ``a`` at ``batch_a`` and ``b``
    at ``batch_b``. A ratio at or below 1 (a super-linear curve) or at or
    above batch_b/batch_a (no batching benefit) is outside the model."""
    if min(batch_a, a, batch_b, b) <= 0:
        raise ConfigurationError(f"batch sizes and {what} measures must be > 0")
    if not (batch_a < batch_b):
        raise ConfigurationError("need batch_a < batch_b")
    ratio = b / a
    if ratio <= 1.0 or ratio >= batch_b / batch_a:
        raise InfeasibleModelError(
            f"{what} ratio {ratio:.6g} outside (1, {batch_b / batch_a:.6g}): "
            "saturation model cannot represent these observations"
        )
    return (batch_b - ratio * batch_a) / (ratio - 1.0), ratio


def calibrate_gpu(
    batch_a: int, latency_a: float, batch_b: int, latency_b: float
) -> tuple[float, float]:
    """Solve the half-saturation constant and per-request work from one
    latency pair measured at two residencies. Returns (b_half,
    work_at_residency_one)."""
    b_half, _ = solve_b_half(batch_a, latency_a, batch_b, latency_b, "latency")
    return b_half, latency_a * (1.0 + b_half) / (batch_a + b_half)


def fit_dynamic_watts(
    energy_small: float,
    energy_large: float,
    integral_small: float,
    integral_large: float,
) -> float:
    """Fit one dynamic-power constant to two (energy, usage-integral)
    endpoints by log-space least squares, i.e. equal relative error on both
    endpoints. With consistent endpoints the fit is exact; out of a float's
    range, it is infeasible."""
    for v in (energy_small, energy_large, integral_small, integral_large):
        if v <= 0:
            raise InfeasibleModelError("energy endpoints and integrals must be > 0")
    product = integral_small * integral_large
    if not 0 < product < math.inf:
        raise InfeasibleModelError(f"integral product {product!r} is out of a float's range")
    watts = math.sqrt((energy_small * energy_large) / product)
    if not 0 < watts < math.inf:
        raise InfeasibleModelError(f"dynamic watts fit {watts!r} is out of a float's range")
    return watts


def fit_cpu_watts(
    energy_small: float,
    energy_large: float,
    busy_small: float,
    busy_large: float,
    active_small: float,
    active_large: float,
) -> tuple[float, float]:
    """Solve the per-busy-core and package-active CPU watts exactly from two
    endpoints, each ``energy = w_core * busy_core_s + w_pkg * active_s``.

    Returns (w_core, w_pkg). Proportional integrals leave the split
    unidentifiable, and a negative constant means no draw of this form can
    produce the endpoints; both are infeasible, as is a fit out of a float's range.
    """
    for v in (energy_small, energy_large, busy_small, busy_large,
              active_small, active_large):
        if v <= 0:
            raise InfeasibleModelError("energy endpoints and integrals must be > 0")
    det = busy_small * active_large - busy_large * active_small
    if det == 0:
        raise InfeasibleModelError(
            "busy-core and package-active integrals are proportional across the "
            "endpoints: per-core and package watts are unidentifiable"
        )
    w_core = (energy_small * active_large - energy_large * active_small) / det
    w_pkg = (busy_small * energy_large - busy_large * energy_small) / det
    if not all(map(math.isfinite, (det, w_core, w_pkg))):
        raise InfeasibleModelError(f"CPU watts fit gives w_core={w_core!r} W, w_pkg={w_pkg!r} "
                                   f"W over determinant {det!r}: out of a float's range")
    if w_core < 0 or w_pkg < 0:
        # nonnegative watts put the energy ratio between the two integral ratios
        bounds = sorted((active_large / active_small, busy_large / busy_small))
        raise InfeasibleModelError(
            f"CPU energy ratio {energy_large / energy_small:.6g} outside "
            f"[{bounds[0]:.6g}, {bounds[1]:.6g}]: fit gives "
            f"w_core={w_core:.6g} W, w_pkg={w_pkg:.6g} W"
        )
    return w_core, w_pkg
