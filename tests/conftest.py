import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    # Ray workers inherit PYTHONPATH, not the driver's sys.path: without
    # it a Ray Data actor class from tests/oracles.py waits forever on
    # workers that cannot import it instead of failing
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.abspath(__file__)),
                    os.environ.get("PYTHONPATH")) if p)
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    # Guard: if some test ray.init()s ahead of this fixture with fewer
    # cpus, ignore_reinit_error makes this init a no-op and the pinned
    # cluster deadlocks multi-actor-pool pipelines. Fail loudly instead.
    assert ray.cluster_resources().get("CPU", 0) >= 4, (
        "pytest Ray cluster pinned below 4 cpus by an earlier ad-hoc "
        "ray.init; route all in-process Ray use through this fixture"
    )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
