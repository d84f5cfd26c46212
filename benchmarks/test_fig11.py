"""Fig 11 benchmarks: STCC spatiotemporal greedy (SApprox vs Approx)."""
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.stcc.spatio_temporal import solve_stcc_greedy, solve_stcc_rand
from repro.workloads import gen_workload


@pytest.fixture(scope="module")
def stcc_instance():
    wl = gen_workload(n_tasks=4, n_workers=400, m=20, seed=0)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * 4
    return wl, ctxs, b


def test_fig11_sapprox(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark.pedantic(
        lambda: solve_stcc_greedy(ctxs, b, 3, domain=wl.domain),
        rounds=1, iterations=1,
    )
    assert r.q_sum > 0


@pytest.fixture(scope="module")
def stcc_instance_large():
    """The second STCC size: |T|=8, m=40, 800 workers, 25 %."""
    wl = gen_workload(n_tasks=8, n_workers=800, m=40, seed=0)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * 8
    return wl, ctxs, b


def test_fig11_sapprox_t8_m40(benchmark, stcc_instance_large):
    wl, ctxs, b = stcc_instance_large
    r = benchmark.pedantic(
        lambda: solve_stcc_greedy(ctxs, b, 3, domain=wl.domain),
        rounds=1, iterations=1,
    )
    assert r.q_sum > 0


def test_fig11_approx_temporal_only(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark.pedantic(
        lambda: solve_stcc_greedy(ctxs, b, 3, w_s=0.0, w_t=1.0,
                                  domain=wl.domain),
        rounds=1, iterations=1,
    )
    assert r.q_sum > 0


def test_fig11_rand(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark(
        lambda: solve_stcc_rand(ctxs, b, 3, domain=wl.domain, seed=0)
    )
    assert r.q_sum >= 0
