"""Worker hygiene: no worker or standby of a fabric outlives it.  The
pids come from the fabric's supervisor, never from a scan of the host."""

import os

import pytest

from repro.fabric import ShardedMonitor


def track(fabric):
    """The pids of the workers and standbys ``fabric``'s supervisor has
    forked or taken in, kept current as it forks replacements and lands
    cuts."""
    supervisor = fabric.supervisor
    pids = {pid for pid in supervisor.worker_pids() + supervisor.standby_pids()
            if pid is not None}
    spawn, set_standby = supervisor._spawn, supervisor._set_standby

    def spawn_and_note(idx):
        worker = spawn(idx)
        pids.add(worker.pid)
        return worker

    def set_standby_and_note(idx, standby):
        if standby is not None:
            pids.add(standby.pid)
        set_standby(idx, standby)

    supervisor._spawn = spawn_and_note
    supervisor._set_standby = set_standby_and_note
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
    assert not alive, f"fabric processes outlived close(): {alive}"


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
