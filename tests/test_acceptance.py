"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8's overall-P50 sub-check fails under the current model of
async LLM clients; it is asserted as stated and fails honestly (see the note
under the test).
"""

import itertools
import random
import warnings

import pytest

import agentsim as a
from agentsim.contention import ThroughputCurve, gain_ratios, select_bcap
from agentsim.engine import serialize_trace
from agentsim.workload import class_labels

from conftest import make_pipeline, run_uniform
from oracle import solve


def emit(n, ok, detail):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


class TestAcceptance:
    def test_01_bcap_table_reproduction_exact(self):
        curves = {
            "langchain": ThroughputCurve({32: 100.0, 64: 152.0, 128: 165.68}),
            "haystack": ThroughputCurve({32: 100.0, 64: 115.0, 128: 124.2}),
            # boundary row: r(128) is exactly 1.10 and must be rejected
            "swe_agent": ThroughputCurve({32: 100.0, 64: 132.0, 128: 132.0 * 1.1}),
        }
        expected_ratios = {
            "langchain": (1.52, 1.09),
            "haystack": (1.15, 1.08),
            "swe_agent": (1.32, 1.1),
        }
        caps = {}
        for name, curve in curves.items():
            ratios = gain_ratios(curve)
            r64, r128 = expected_ratios[name]
            assert ratios[64] == pytest.approx(r64, abs=1e-12)
            assert ratios[128] == pytest.approx(r128, abs=1e-12)
            caps[name] = select_bcap(ratios, 1.1)
        ok = all(cap == 64 for cap in caps.values())
        emit(1, ok, f"b_cap selections {caps} (all must be 64, strict at 1.10)")

    def test_02_cgam_p50_halving_langchain(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, mp = run_uniform(pipe, 128, a.Policy("multiprocessing"), models)
        _, cg = run_uniform(pipe, 128, a.Policy("cgam", b_cap=64), models)
        p50_ratio = mp.p50 / cg.p50
        p90_ratio = mp.p90 / cg.p90
        ok = 1.9 <= p50_ratio <= 2.2 and 0.9 <= p90_ratio <= 1.1
        emit(2, ok, f"P50 ratio {p50_ratio:.4f} in [1.9, 2.2]; "
                    f"P90 ratio {p90_ratio:.4f} in [0.9, 1.1]")

    def test_03_cgam_across_workloads(self, models):
        _, hy_base = run_uniform(a.load_profile("haystack_nq"), 128,
                                 a.Policy("multithreading", pool_size=96), models)
        _, hy_cgam = run_uniform(a.load_profile("haystack_nq"), 128,
                                 a.Policy("cgam", b_cap=64, exec="thread",
                                          pool_size=96), models)
        _, swe_base = run_uniform(a.load_profile("swe_agent_apps"), 128,
                                  a.Policy("multiprocessing"), models)
        _, swe_cgam = run_uniform(a.load_profile("swe_agent_apps"), 128,
                                  a.Policy("cgam", b_cap=64), models)
        speedups = {
            "haystack": hy_base.p50 / hy_cgam.p50,
            "swe_agent": swe_base.p50 / swe_cgam.p50,
        }
        hard_ok = all(s > 1.5 for s in speedups.values())
        soft = {"haystack": 1.94, "swe_agent": 1.72}
        for name, target in soft.items():
            if abs(speedups[name] / target - 1.0) > 0.15:
                warnings.warn(
                    f"soft gate: {name} CGAM P50 speedup {speedups[name]:.3f} "
                    f"outside +-15% of {target}"
                )
        emit(3, hard_ok,
             f"P50 speedups {speedups['haystack']:.4f} (target 1.94), "
             f"{speedups['swe_agent']:.4f} (target 1.72); hard gate > 1.5")

    def test_04_overlap_tradeoff_ordering(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, mp = run_uniform(pipe, 128, a.Policy("multiprocessing"), models)
        _, cg = run_uniform(pipe, 128, a.Policy("cgam", b_cap=64), models)
        _, ov = run_uniform(pipe, 128, a.Policy("cgam_overlap", b_cap=64), models)
        ok = cg.p50 < ov.p50 < mp.p50 and ov.p90 < cg.p90
        emit(4, ok,
             f"P50: cgam {cg.p50:.4f} < overlap {ov.p50:.4f} < mp {mp.p50:.4f}; "
             f"P90: overlap {ov.p90:.4f} < cgam {cg.p90:.4f}")

    def test_05_kv_halving_exact(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, mp = run_uniform(pipe, 128, a.Policy("multiprocessing"), models)
        _, cg = run_uniform(pipe, 128, a.Policy("cgam", b_cap=64), models)
        ok = cg.kv_peak * 2 == mp.kv_peak
        emit(5, ok, f"kv peak cgam {cg.kv_peak} B = exactly half of mp {mp.kv_peak} B")

    def test_06_cpu_energy_saving(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, mp = run_uniform(pipe, 128, a.Policy("multiprocessing"), models)
        _, cg = run_uniform(pipe, 128, a.Policy("cgam", b_cap=64), models)
        ratio = mp.cpu_dyn_energy / cg.cpu_dyn_energy
        ok = 1.4 <= ratio <= 2.0
        emit(6, ok, f"CPU dynamic energy ratio {ratio:.4f} in [1.4, 2.0]")

    def test_07_maws_mixed_workload(self, models, resources):
        fq = a.load_profile("langchain_freshqa")
        gd = a.load_profile("langchain_guardrail")
        tasks = a.build_workload(
            a.WorkloadSpec(batch_size=128, mix=((fq, 0.5), (gd, 0.5)), jitter_cv=0.0))
        labels = class_labels(tasks)
        assert sum(1 for c in labels.values() if c is a.TaskClass.CPU_HEAVY) == 64
        tr_mp = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        tr_mw = a.simulate(tasks, a.Policy("maws", theta=0.5, thread_pool_cores=8),
                           resources, models)
        mp = a.summarize(tr_mp, models.energy, models.gpu, labels)
        mw = a.summarize(tr_mw, models.energy, models.gpu, labels)
        p99_ratio = mp.p99 / mw.p99
        p50_ratio = mp.p50 / mw.p50
        ok = p99_ratio >= 1.10 and 0.9 <= p50_ratio <= 1.1
        emit(7, ok, f"P99 ratio {p99_ratio:.4f} >= 1.10; "
                    f"P50 ratio {p50_ratio:.4f} in [0.9, 1.1]")

    def test_08_maws_cgam_at_256(self, models, resources):
        fq = a.load_profile("langchain_freshqa")
        gd = a.load_profile("langchain_guardrail")
        tasks = a.build_workload(
            a.WorkloadSpec(batch_size=256, mix=((fq, 0.5), (gd, 0.5)), jitter_cv=0.0))
        labels = class_labels(tasks)
        tr_mp = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        tr_mc = a.simulate(
            tasks, a.Policy("maws_cgam", theta=0.5, thread_pool_cores=8, b_cap=64),
            resources, models)
        mp = a.summarize(tr_mp, models.energy, models.gpu, labels)
        mc = a.summarize(tr_mc, models.energy, models.gpu, labels)
        cls = mp.per_class["cpu_heavy"].p50 / mc.per_class["cpu_heavy"].p50
        overall_p50 = mp.p50 / mc.p50
        overall_p99 = mp.p99 / mc.p99
        ok = cls >= 1.8 and overall_p50 >= 1.3 and overall_p99 >= 1.10
        emit(8, ok,
             f"cpu-class P50 speedup {cls:.4f} >= 1.8; overall P50 "
             f"{overall_p50:.4f} >= 1.3; overall P99 {overall_p99:.4f} >= 1.10")
        # The overall-P50 gate fails while async LLM clients stay immune to
        # host oversubscription. With 128 + 128 tasks the nearest-rank P50 is
        # the 128th latency, on both sides the last langchain_guardrail
        # request. Its GPU stage is not host-blocking, so multiprocessing
        # cannot slow it: 128 resident requests take 2.6*(128+64)/65 = 7.680 s
        # and it finishes at 7.682 s after its oversubscribed 1 ms check.
        # No policy that starts all 128 guardrail requests at t=0 beats the
        # 7.680 s floor; maws_cgam gives 8.214 s, since micro-batch 1's LLM
        # stage shares the GPU. The gate thus needs multiprocessing to slow
        # LLM-heavy requests by >= 1.39x here, while criterion 7's P50 band
        # allows at most 1.176x at batch 128.

    def test_09_parallelism_ordering(self, models):
        cpu_only = make_pipeline("cpu_only_tool", [("cpu_tool", 1.0, 1.0)])
        _, seq = run_uniform(cpu_only, 128, a.Policy("sequential"), models)
        _, mt = run_uniform(cpu_only, 128,
                            a.Policy("multithreading", pool_size=96), models)
        _, mp = run_uniform(cpu_only, 128, a.Policy("multiprocessing"), models)
        mp_mt = mt.p50 / mp.p50
        seq_mp = seq.p50 / mp.p50
        ordering = seq.p50 > mt.p50 > mp.p50
        ok = ordering and 1.4 <= mp_mt <= 1.8
        if seq_mp < 20:
            warnings.warn(f"soft gate: sequential/multiprocessing {seq_mp:.1f} < 20")
        emit(9, ok,
             f"ordering seq {seq.p50:.2f} > mt {mt.p50:.4f} > mp {mp.p50:.4f}; "
             f"mp-over-mt speedup {mp_mt:.4f} in [1.4, 1.8]; seq {seq_mp:.1f}x soft")

    def test_10_oracle_equivalence(self):
        from agentsim.contention import ContentionModels, CpuContentionParams

        checked = 0
        worst = 0.0
        for n_tasks, n_stages, cores, kappa in itertools.product(
            (1, 2, 3, 4, 5), (1, 2), (1, 2), (0.0, 0.5)
        ):
            works = [
                [0.25 + ((7 * i + 3 * j) % 8) / 8.0 for j in range(n_stages)]
                for i in range(n_tasks)
            ]
            pipes = [
                make_pipeline(f"o{i}", [("cpu_tool", w, 1.0) for w in works[i]])
                for i in range(n_tasks)
            ]
            tasks = [
                a.TaskInstance(id=i, pipeline=pipes[i],
                               stage_work=tuple(works[i]))
                for i in range(n_tasks)
            ]
            m = ContentionModels(
                cpu=CpuContentionParams(logical_cores=cores, oversub_kappa=kappa))
            trace = a.simulate(tasks, a.Policy("multiprocessing"),
                               a.ResourcePool(logical_cores=cores), m)
            got = trace.task_latencies()
            expected = solve([[("cpu", w, 1.0) for w in tw] for tw in works],
                             cores=cores, kappa=kappa)
            for tid, want in enumerate(expected):
                worst = max(worst, abs(got[tid] - want))
                assert got[tid] == pytest.approx(want, abs=1e-9)
            checked += 1
        emit(10, checked == 40,
             f"{checked} enumerated instances match the fixed-point oracle, "
             f"worst abs deviation {worst:.2e} <= 1e-9")

    def test_11_work_conservation_and_determinism(self, models):
        rng = random.Random(20240811)
        pipeline_pool = [a.load_profile(n) for n in
                         ("langchain_freshqa", "langchain_guardrail", "haystack_nq")]
        policies = [
            lambda r: a.Policy("multiprocessing"),
            lambda r: a.Policy("sequential"),
            lambda r: a.Policy("multithreading", pool_size=r.choice([2, 8, 96])),
            lambda r: a.Policy("cgam", b_cap=r.choice([1, 2, 3])),
            lambda r: a.Policy("cgam_overlap", b_cap=r.choice([1, 2, 3])),
            lambda r: a.Policy("maws", theta=0.5, thread_pool_cores=r.choice([2, 8])),
            lambda r: a.Policy("maws_cgam", theta=0.5, b_cap=r.choice([2, 3])),
        ]
        failures = 0
        for i in range(1000):
            n_pipes = rng.randint(1, 2)
            chosen = rng.sample(pipeline_pool, n_pipes)
            mix = tuple((p, 1.0 / n_pipes) for p in chosen)
            spec = a.WorkloadSpec(
                batch_size=rng.randint(1, 6), mix=mix,
                jitter_cv=rng.choice([0.0, 0.05]), seed=i,
            )
            tasks = a.build_workload(spec)
            policy = policies[i % len(policies)](rng)
            res = a.ResourcePool(logical_cores=rng.choice([2, 8, 96]))
            t1 = a.simulate(tasks, policy, res, models, seed=i)
            t2 = a.simulate(tasks, policy, res, models, seed=i)
            if not a.replay_check(t1, models).ok:
                failures += 1
            if serialize_trace(t1) != serialize_trace(t2):
                failures += 1
        emit(11, failures == 0,
             f"1000 randomized configs: replay_check clean and reruns "
             f"byte-identical ({failures} failures)")

    def test_12_energy_endpoint_replay(self, energy_models):
        pipe = a.load_profile("langchain_freshqa_energyhost")
        rows = []
        for batch in (1, 2, 4, 8, 16, 32, 64, 128):
            _, rep = run_uniform(pipe, batch, a.Policy("multiprocessing"),
                                 energy_models, cores=128)
            share = rep.cpu_dyn_energy / (rep.cpu_dyn_energy + rep.gpu_dyn_energy)
            rows.append((batch, rep.cpu_dyn_energy, rep.gpu_dyn_energy, share))
        cpu1, cpu128 = rows[0][1], rows[-1][1]
        gpu1, gpu128 = rows[0][2], rows[-1][2]
        share1, share128 = rows[0][3], rows[-1][3]
        monotone = all(b[3] > a_[3] for a_, b in zip(rows, rows[1:]))
        gpu_ok = abs(gpu1 / 86.0 - 1) <= 0.10 and abs(gpu128 / 2307.0 - 1) <= 0.10
        cpu_ok = abs(cpu1 / 22.0 - 1) <= 0.10 and abs(cpu128 / 1807.0 - 1) <= 0.10
        # "~20%" / "~44%" pinned at +-6 percentage points
        share_ok = monotone and abs(share1 - 0.204) <= 0.06 and abs(share128 - 0.439) <= 0.06
        ok = gpu_ok and cpu_ok and share_ok
        emit(12, ok,
             f"CPU {cpu1:.1f}->{cpu128:.1f} J (targets 22->1807, +-10%: {cpu_ok}); "
             f"GPU {gpu1:.1f}->{gpu128:.1f} J (targets 86->2307, +-10%: {gpu_ok}); "
             f"CPU share {share1:.3f}->{share128:.3f} monotone={monotone}")
        # Busy core-seconds alone grow 128x from batch 1 to 128 on this host,
        # against the measured 82.1x. The package draw, paid while any host
        # work is runnable, is the batch-independent CPU term (as gpu_dyn_w is
        # for the GPU). Calibration fits both CPU constants to the endpoints,
        # so what this criterion tests is the share rising through the six
        # unfitted batch sizes.
