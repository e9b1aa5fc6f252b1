"""Every job-store connection is closed by the store, not by the GC.

A ``sqlite3.Connection`` sits in a reference cycle through its statement
cache, so one the store never closes stays open until the cyclic
collector runs.  Closing it then checkpoints its WAL into whatever file
sits at the path by that time, which can bring back a shard that was
overwritten in between.  These tests switch the collector off and never
run it, so a connection the store left open is still open when checked.
"""

import gc
import sqlite3

import pytest

from repro.service import JobSpec, open_job_store, scrub_store
from repro.service.shards import shard_db_path


@pytest.fixture
def connections(monkeypatch):
    """Every connection opened during the test, with the GC switched off."""
    opened = []
    real_connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield opened
    finally:
        for conn in opened:
            conn.close()
        if was_enabled:
            gc.enable()


def still_open(connections):
    left = []
    for conn in connections:
        try:
            conn.total_changes
        except sqlite3.ProgrammingError:
            continue  # closed
        left.append(conn)
    return left


@pytest.mark.parametrize("shards", [None, 4])
def test_open_job_store_closes_its_connections(
    connections, tmp_path, shards
):
    open_job_store(tmp_path, shards=shards)
    assert connections
    assert still_open(connections) == []


def test_reopening_an_existing_store_closes_its_connections(
    connections, tmp_path
):
    open_job_store(tmp_path)
    open_job_store(tmp_path)  # integrity check and migration path
    assert still_open(connections) == []


def test_scrub_over_garbage_shard_closes_its_connections(
    connections, tmp_path, fast_config
):
    store = open_job_store(tmp_path, shards=4)
    spec = JobSpec(workload="cos", n_inputs=6, config=fast_config)
    store.submit(spec, "0" * 64, now=100.0)
    path = shard_db_path(tmp_path, 0, 4)
    for suffix in ("-wal", "-shm"):
        sidecar = path.with_name(path.name + suffix)
        if sidecar.exists():
            sidecar.unlink()
    path.write_bytes(b"not a database")
    report = scrub_store(tmp_path)
    assert not report["shards"][0]["ok"]
    assert still_open(connections) == []
