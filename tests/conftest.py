from types import SimpleNamespace

import pytest

from twoscale import harness
from twoscale.noise import increments


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the harness's forked pool for one that runs its jobs in-process.

    Returns the pools the run opens; each records its worker count, the
    jobs as handed over (in row order) and the plan that deals them to
    workers (harness._plan), longest grid first.  The jobs run worker by worker, in plan
    order, and come back in job order, as from harness._forked.
    """
    opened = []

    def forked(jobs, workers):
        plan = harness._plan(jobs, workers)
        opened.append(SimpleNamespace(workers=workers, jobs=list(jobs), plan=plan))
        done = {i: harness._run_chunk(jobs[i]) for mine in plan for i in mine}
        return [done[i] for i in range(len(jobs))]

    monkeypatch.setattr(harness, "_forked", forked)
    return opened


def brownian(seed, paths, tag, grid, m=1):
    """The increments of streams (seed, p, tag), p in paths, on grid, as the kernels take them."""
    return increments(seed, paths, tag, m, grid.steps, grid.h)
