"""Crash recovery: SIGKILL the real service mid-campaign, and journal
records a restarted service cannot rebuild.

Unlike ``test_service_faults.py`` (in-process, simulated kills), this
test runs ``repro serve`` as a real subprocess, SIGKILLs it while shards
are streaming into the checkpoint store, garbles the store's tail to
mimic a write cut off mid-append, and restarts the service on the same
cache root.  The journal must requeue the unfinished job, the store must
heal its torn tail, and the resumed run must reuse the surviving
checkpoints and merge to the exact direct-runner result.  A journal
record whose spec is no longer legal is skipped on replay, counted, and
reported on stderr, without stopping the service.
"""

import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import MonteCarloSpec, run_montecarlo
from repro.service import ServiceClient
from repro.service.jobs import JobJournal
from repro.service.testing import service_fixture

PARAMS = {"n_chips": 12000, "chunk_size": 80}  # 150 shards


def _spawn_service(cache_root: Path) -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--service-workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if not ready:
            if proc.poll() is not None:
                break
            continue
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            return proc, line.split("serving on ", 1)[1].strip()
        if not line:
            break
    proc.kill()
    pytest.fail(f"service did not start (last output: {line!r})")


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


def test_sigkill_mid_campaign_then_restart_resumes(tmp_path):
    direct = dataclasses.asdict(
        run_montecarlo(MonteCarloSpec(**PARAMS), checkpoint=False)
    )

    proc, url = _spawn_service(tmp_path)
    try:
        client = ServiceClient(url)
        job = client.submit("montecarlo", PARAMS)["job"]
        # Let checkpoints accumulate, then pull the plug uncleanly.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job)["progress"]["done"] >= 5:
                break
            time.sleep(0.02)
        else:
            pytest.fail("no shard progress before deadline")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        _kill(proc)

    # Simulate the kill having landed mid-append: garble the store tail.
    stores = sorted(tmp_path.glob("montecarlo-*.jsonl"))
    assert stores, "checkpoint store missing after kill"
    with open(stores[0], "a") as f:
        f.write('{"shard": 9999, "payl')  # torn line, no newline

    proc, url = _spawn_service(tmp_path)
    try:
        client = ServiceClient(url)
        # The journal replays the unfinished job; no resubmit needed.
        result = client.wait(job, timeout=120)
        st = client.status(job)
        assert st["progress"]["cached"] >= 5
        assert st["run_count"] <= 1  # resumed, not recomputed
        assert result["result"] == direct
    finally:
        _kill(proc)


def test_journal_record_with_retired_spec_is_skipped_loudly(
    tmp_path, capsys
):
    records = [
        # A retired replay strategy: the spec no longer builds.
        {"ev": "submit", "job": "inject-retired", "campaign": "inject",
         "params": {"n_faults": 4, "grouped": False}, "t": 0.0},
        {"ev": "submit", "job": "montecarlo-ok", "campaign": "montecarlo",
         "params": {"n_chips": 200, "chunk_size": 100}, "t": 0.0},
    ]
    (tmp_path / JobJournal.FILENAME).write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    with service_fixture(tmp_path, service_workers=0) as (client, service):
        assert client.metrics()["service"]["journal_skipped"] == 1
        assert [j["job"] for j in client.jobs()] == ["montecarlo-ok"]
    err = capsys.readouterr().err
    assert "inject-retired" in err
    assert "grouped=False" in err
