import pytest

from twoscale import harness


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the harness's process pool for one that runs its jobs in order, in-process.

    Returns the pools the run opens; each records its size and the jobs
    it was given, in the order they were submitted.
    """
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.jobs = []
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            self.jobs.extend(jobs)
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    return opened
