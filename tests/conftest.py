from types import SimpleNamespace

import pytest

from twoscale import harness


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the harness's forked pool for one that runs its jobs in-process.

    Returns the pools the run opens; each records its worker count, the
    jobs in the order they were handed over and the plan that deals them
    to workers (harness._plan).  The jobs run worker by worker, in plan
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
