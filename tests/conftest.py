"""Fixtures shared by the test suite."""

import pytest

from frfstats import bands

from support import drop_pool


@pytest.fixture(autouse=True)
def no_held_pool():
    # The band pool outlives its set, so without this a test's draws would
    # depend on which test ran before it.
    drop_pool()


@pytest.fixture
def walks(monkeypatch):
    """The replication count of each band walk (`bands._replicates`) that
    starts during the test, in order."""
    started = []
    replicates = bands._replicates

    def counted(pirs, cfg, streams, indices):
        started.append(cfg.replications)
        return replicates(pirs, cfg, streams, indices)

    monkeypatch.setattr(bands, "_replicates", counted)
    return started
