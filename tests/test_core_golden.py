"""Golden pins of the cycle-level core's timing and snapshot layout.

Every number here was recorded from the filter-based scheduler (the
issue queue rebuilt each segment from one age-ordered list and every
waiting entry re-derived its readiness each cycle).  The core must
reproduce them exactly: the scheduler's bookkeeping may get faster, but
no cycle, replay, squash or occupancy count may move.

The snapshot digests pin the byte layout of :meth:`Core.snapshot`, so
golden-prefix caches and snapshot-arena bytes written by earlier code
stay valid without a ``GOLDEN_CACHE_VERSION`` bump.
"""

import hashlib
import pickle

import pytest

from repro.cpu import Core, MachineConfig
from repro.cpu.archstate import ArchState
from repro.workloads import generate_trace, profile

CONFIGS = {
    "base": dict(),
    "rescue": dict(rescue=True),
    "rescue-trim": dict(rescue=True, replay_policy="trim"),
    "rescue-iqint1": dict(rescue=True, iq_int_halves=1),
    "rescue-iqfp1": dict(rescue=True, iq_fp_halves=1),
    "rescue-iqint1-trim": dict(
        rescue=True, iq_int_halves=1, replay_policy="trim"
    ),
}

#: (measured instructions, warm-up) per benchmark; traces use seed 11.
RUNS = {"gzip": (1500, 500), "mcf": (600, 300), "mesa": (1500, 500)}

#: (benchmark, config) -> (cycles, instructions, replays, load_squashes,
#: issued, iq_occupancy_sum)
GOLDEN = {
    ("gzip", "base"): (3299, 1500, 0, 41, 1498, 46588),
    ("gzip", "rescue"): (3426, 1500, 32, 85, 1498, 47906),
    ("gzip", "rescue-trim"): (3427, 1500, 32, 85, 1498, 47908),
    ("gzip", "rescue-iqint1"): (3394, 1500, 0, 83, 1498, 31744),
    ("gzip", "rescue-iqfp1"): (3426, 1500, 32, 85, 1498, 47906),
    ("gzip", "rescue-iqint1-trim"): (3394, 1500, 0, 83, 1498, 31744),
    ("mcf", "base"): (9860, 600, 0, 122, 590, 211964),
    ("mcf", "rescue"): (9911, 600, 0, 246, 590, 206870),
    ("mcf", "rescue-trim"): (9911, 600, 0, 246, 590, 206870),
    ("mcf", "rescue-iqint1"): (9894, 600, 0, 247, 590, 122201),
    ("mcf", "rescue-iqfp1"): (9911, 600, 0, 246, 590, 206870),
    ("mcf", "rescue-iqint1-trim"): (9894, 600, 0, 247, 590, 122201),
    ("mesa", "base"): (6472, 1497, 0, 65, 1467, 185716),
    ("mesa", "rescue"): (6571, 1497, 0, 137, 1467, 179485),
    ("mesa", "rescue-iqint1"): (6546, 1497, 0, 136, 1467, 116046),
    ("mesa", "rescue-iqfp1"): (6565, 1497, 0, 138, 1467, 166411),
}

#: (benchmark, config, cycle) -> sha256 of the pickled snapshot taken at
#: the top of ``cycle`` (a 900-instruction trace, seed 11, with an
#: ArchState attached).  Each cycle was chosen so the snapshot holds a
#: pending load fix and issued-but-unreleased queue entries (and, on
#: Rescue, compaction-buffer entries).
SNAPSHOT_DIGESTS = {
    ("gzip", "base", 351):
        "08ddf262c265d5689bbf69b691ec6c565ea4c95e55b448f43fd559a7e292388a",
    ("gzip", "rescue", 407):
        "014e0ea3efc971dc1d7b546323ae7c7a8f874383d5700b19d720e8f7b87b8e8b",
    ("mcf", "base", 357):
        "71544f86e334046e18a8266e7054b383a31a4e069d0398640028e98d2c5b558d",
    ("mcf", "rescue", 369):
        "5d0eaf022876eb44ec84216febd30c19edec5add0ec2ae75928dbdc471d53792",
}


@pytest.mark.parametrize("bench,name", sorted(GOLDEN))
def test_sim_result_matches_golden(bench, name):
    n, warmup = RUNS[bench]
    trace = generate_trace(profile(bench), n + warmup, seed=11)
    r = Core(MachineConfig(**CONFIGS[name]), trace).run(n, warmup=warmup)
    got = (
        r.cycles, r.instructions, r.replays, r.load_squashes, r.issued,
        r.iq_occupancy_sum,
    )
    assert got == GOLDEN[(bench, name)]


@pytest.mark.parametrize("bench,name,cycle", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_bytes_match_golden(bench, name, cycle):
    cfg = MachineConfig(**CONFIGS[name])
    trace = generate_trace(profile(bench), 900, seed=11)
    core = Core(cfg, trace, arch=ArchState(cfg))
    taken = []

    def on_cycle(c):
        if c.cycle == cycle:
            taken.append(c.snapshot())
            return True
        return False

    core.run(900, on_cycle=on_cycle)
    assert len(taken) == 1
    digest = hashlib.sha256(pickle.dumps(taken[0], protocol=5)).hexdigest()
    assert digest == SNAPSHOT_DIGESTS[(bench, name, cycle)]
