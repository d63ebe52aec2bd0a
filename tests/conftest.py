import pytest

import agentsim as a

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests run a fixed example sequence, so tier-1 stays
    # deterministic and bounded on small machines.
    settings.register_profile(
        "agentsim", deadline=None, derandomize=True, max_examples=150, database=None
    )
    settings.load_profile("agentsim")


# The policy parameters each policy reads, by config key, as the README
# documents them: every policy reads theta, and cgam and cgam_overlap read
# pool_size only under exec: thread. Written out here, apart from the
# package's own table, so the tests check that table.
POLICY_READS = {
    "sequential": {"theta"},
    "multithreading": {"pool_size", "theta"},
    "multiprocessing": {"theta"},
    "cgam": {"b_cap", "pool_size", "theta", "exec"},
    "cgam_overlap": {"b_cap", "pool_size", "theta", "exec"},
    "maws": {"theta", "thread_pool_cores"},
    "maws_cgam": {"b_cap", "theta", "thread_pool_cores"},
}
# config key, which is also the Policy field, -> type of each policy parameter
POLICY_KEYS = {"b_cap": int, "pool_size": int, "theta": float, "thread_pool_cores": int,
               "exec": str}


@pytest.fixture(scope="session")
def models():
    return a.load_models("emerald_rapids_b200")


@pytest.fixture(scope="session")
def energy_models():
    return a.load_models("threadripper_h200_energy")


@pytest.fixture(scope="session")
def resources():
    return a.ResourcePool(logical_cores=96)


def make_pipeline(name, stages):
    """stages: list of (kind, base_latency, cpu_share[, kv_tokens[, blocking]])."""
    specs = []
    for i, s in enumerate(stages):
        kind, lat, share = s[0], s[1], s[2]
        kv = s[3] if len(s) > 3 else 0
        blocking = s[4] if len(s) > 4 else False
        specs.append(
            a.StageSpec(
                kind=a.StageKind(kind), base_latency=lat, cpu_share=share,
                kv_tokens=kv, label=f"s{i}", host_blocking=blocking,
            )
        )
    return a.PipelineSpec(name=name, stages=tuple(specs))


def run_uniform(pipeline, batch_size, policy, models, cores=96, seed=0, theta=0.5):
    """Build a single-pipeline closed-loop workload, simulate, summarize."""
    from agentsim.workload import class_labels

    tasks = a.build_workload(
        a.WorkloadSpec(batch_size=batch_size, mix=((pipeline, 1.0),),
                       jitter_cv=0.0, seed=seed)
    )
    trace = a.simulate(tasks, policy, a.ResourcePool(logical_cores=cores), models)
    report = a.summarize(trace, models.energy, models.gpu, class_labels(tasks, theta))
    return trace, report
