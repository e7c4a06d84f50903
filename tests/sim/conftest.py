"""Shared helpers for the sim/wall-clock runtime test suites."""

import pytest


@pytest.fixture
def run_program():
    """Spawn one program on server 0, run the cluster, return its result.

    Works on any cluster-like object (`Cluster` or `WorkerCluster`): both
    expose ``engine(i).spawn`` and ``run()``.
    """
    def run(cluster, gen):
        out = []
        cluster.engine(0).spawn(gen, on_done=out.append)
        cluster.run()
        assert out, "program never completed"
        return out[0]

    return run
