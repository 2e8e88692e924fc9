"""Shared fixtures.

The Painleve solves are the expensive part of the suite, so each
configuration is solved once per session and reused.  The solution
cache of the session lives in a directory of its own, never the user's.
"""

import numpy as np
import pytest

from edgedist import dist, painleve

MOMENT_GRID = np.linspace(-13.0, 9.5, 1801)


@pytest.fixture(scope="session", autouse=True)
def solution_cache(tmp_path_factory):
    # set before the first solve; subprocesses (the demos) inherit it
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def sol_default():
    # the CLI's served solve: it covers the default table grid [-13, 6]
    # and the moment grid
    return painleve.solve()


@pytest.fixture(scope="session")
def sol_order0():
    return painleve.solve(painleve.SolverConfig(jet_order=0))


@pytest.fixture(scope="session")
def sol_order2():
    return painleve.solve(painleve.SolverConfig(jet_order=2))


@pytest.fixture(scope="session")
def sol_deep():
    # far-left window for underflow-clamp behavior; only one jet order
    # to keep it cheap
    return painleve.solve(painleve.SolverConfig(x_left=-20.25, jet_order=1))


@pytest.fixture(scope="session")
def beta1_tables(sol_default):
    return [dist.cdf(dist.DistRequest(beta=1, m=m, s_grid=MOMENT_GRID),
                     sol_default) for m in range(1, 5)]


@pytest.fixture(scope="session")
def beta2_tables(sol_default):
    return [dist.cdf(dist.DistRequest(beta=2, m=m, s_grid=MOMENT_GRID),
                     sol_default) for m in (1, 2)]
