"""Worker hygiene: no worker a fabric forks outlives it.  The pids come
from the fabric's supervisor, never from a scan of the host."""

import os

import pytest

from repro.fabric import ShardedMonitor


def track(fabric):
    """The pids ``fabric``'s supervisor has forked, kept current as it
    forks replacements."""
    supervisor = fabric.supervisor
    pids = {pid for pid in supervisor.worker_pids() if pid is not None}
    spawn = supervisor._spawn

    def spawn_and_note(idx):
        worker = spawn(idx)
        pids.add(worker.pid)
        return worker

    supervisor._spawn = spawn_and_note
    return pids


def assert_reaped(pids):
    """No pid in ``pids`` names a process, a zombie included."""
    alive = []
    for pid in sorted(pids):
        try:
            os.kill(pid, 0)
            alive.append(pid)
        except ProcessLookupError:
            pass
    assert not alive, f"fabric workers outlived close(): {alive}"


@pytest.fixture
def workers_reaped(monkeypatch):
    """No worker of a fabric the test builds outlives the test."""
    tracked = []
    init = ShardedMonitor.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracked.append(track(self))

    monkeypatch.setattr(ShardedMonitor, "__init__", tracking_init)
    yield
    for pids in tracked:
        assert_reaped(pids)
