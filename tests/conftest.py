import pytest

from gevrey_evolve import harness, make_grid, model_problem
from gevrey_evolve.positivity import select_parameters_detailed

THETA = 1.8
SIGMA = 0.75


@pytest.fixture(autouse=True)
def host_allocator(monkeypatch):
    """harness.main sets glibc's allocator policy for the rest of its
    process; a test that calls main in-process keeps the host's allocator,
    as a library caller does (test_harness runs the real policy in
    subprocesses)."""
    monkeypatch.setattr(harness, "reuse_freed_memory", lambda: False)


@pytest.fixture(scope="session")
def small_setup():
    """complex-damped at (L=10, N=64) with auto-selected weights."""
    prob = model_problem("complex-damped", SIGMA, domain=10.0)
    grid = make_grid(10.0, 64)
    params, details = select_parameters_detailed(prob, THETA, grid)
    bundle = details["bundle"]
    return dict(problem=prob, grid=grid, params=params, details=details,
                bundle=bundle, assembler=bundle.assembler)


@pytest.fixture(scope="session")
def medium_setup():
    """complex-damped at (L=20, N=128) with auto-selected weights."""
    prob = model_problem("complex-damped", SIGMA, domain=20.0)
    grid = make_grid(20.0, 128)
    params, details = select_parameters_detailed(prob, THETA, grid)
    bundle = details["bundle"]
    return dict(problem=prob, grid=grid, params=params, details=details,
                bundle=bundle, assembler=bundle.assembler)


@pytest.fixture(scope="session")
def large_setup():
    """complex-damped at (L=20, N=256) with auto-selected weights."""
    prob = model_problem("complex-damped", SIGMA, domain=20.0)
    grid = make_grid(20.0, 256)
    params, details = select_parameters_detailed(prob, THETA, grid)
    return dict(problem=prob, grid=grid, params=params, details=details)


@pytest.fixture(scope="session")
def modulated64_selection():
    """time-modulated at (L=10, N=64): (problem, grid, params, details)."""
    prob = model_problem("time-modulated", SIGMA, domain=10.0)
    grid = make_grid(10.0, 64)
    return (prob, grid, *select_parameters_detailed(prob, THETA, grid))
