"""Spec declarations: one ``param`` per field drives validation, the
campaign command lines and the service's 400s.

- the table pins every command line of ``repro run <campaign>``,
  ``inject``, ``decide`` and ``repair`` to the exact spec it names;
- invalid values are usage errors (exit 2) on the CLI;
- hostile ``POST /jobs`` params, generated from the declarations, are
  400s that name the field and queue nothing.
"""

import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.cli import _inject_overrides, build_parser, main, spec_from_args
from repro.decide import DecideSpec
from repro.inject import InjectionSpec
from repro.repair import RepairSpec
from repro.runner import IpcSweepSpec, IsolationSpec, MonteCarloSpec
from repro.runner.protocol import Spec, spec_params
from repro.runner.registry import REGISTRY
from repro.service import ServiceError
from repro.service.testing import service_fixture
from repro.workloads import PROFILES

ALL_BENCHMARKS = tuple(p.name for p in PROFILES)
MAPPED_OUT = (
    "frontend.1", "int_backend.1", "fp_backend.1", "iq_int.1", "iq_fp.1",
    "lsq.1",
)

# argv -> the spec the parent's hand-written builders made of it.
TABLE = [
    (["run", "isolation", "--tiny", "--baseline", "--seed", "4",
      "--faults", "30", "--chunk-size", "7"],
     IsolationSpec(tiny=True, baseline=True, fault_seed=4, n_faults=30,
                   chunk_size=7)),
    # An absent switch is off, even where the spec default is on.
    (["run", "isolation", "--seed", "1"],
     IsolationSpec(tiny=False, fault_seed=1)),
    (["run", "montecarlo", "--chips", "400", "--growth", "40",
      "--stagnation", "65", "--node", "22", "--seed", "1",
      "--chunk-size", "100"],
     MonteCarloSpec(node_nm=22.0, growth=0.4, stagnation_node_nm=65.0,
                    n_chips=400, seed=1, chunk_size=100)),
    (["run", "montecarlo", "--seed", "1"], MonteCarloSpec(seed=1)),
    (["run", "ipc", "--benchmarks", "gzip", "mcf", "--instructions",
      "1000", "--warmup", "500", "--full", "--chunk-size", "3"],
     IpcSweepSpec(benchmarks=("gzip", "mcf"), n_instructions=1000,
                  warmup=500, compose=False, chunk_size=3)),
    (["run", "ipc"], IpcSweepSpec(benchmarks=ALL_BENCHMARKS)),
    (["run", "inject", "--faults", "8", "--seed", "1", "--chunk-size", "4"],
     InjectionSpec(n_faults=8, seed=1, chunk_size=4)),
    (["run", "decide", "--benchmarks", "gzip", "--instructions", "600",
      "--warmup", "200", "--faults", "8", "--seed", "1", "--node", "22",
      "--growth", "40", "--stagnation", "65", "--chunk-size", "2",
      "--top", "3"],
     DecideSpec(benchmarks=("gzip",), n_instructions=600, warmup=200,
                n_faults=8, inject_seed=1, node_nm=22.0, growth=0.4,
                stagnation_node_nm=65.0, chunk_size=2)),
    (["run", "repair", "--tiny", "--seed", "0", "--model", "rescue",
      "--chunk-size", "3"],
     RepairSpec(model="rescue", tiny=True, seed=0, chunk_size=3)),
    (["inject", "--sites", "6", "--instructions", "600", "--benchmark",
      "mcf", "--trace-seed", "3", "--model", "stuckat", "--seed", "2",
      "--chunk-size", "3", "--checkpoint-interval", "64", "--no-fork",
      "--snapshot-budget", "20000", "--golden-cache", "--summary-only",
      "--exemplars", "3", "--sampling", "weighted", "--profile-stride",
      "8"],
     InjectionSpec(benchmark="mcf", n_instructions=600, trace_seed=3,
                   model="stuckat", n_faults=6, seed=2, chunk_size=3,
                   checkpoint_interval=64, fork=False, keep_records=False,
                   exemplar_cap=3, sampling="weighted", profile_stride=8,
                   snapshot_budget=20000, golden_cache=True)),
    # --faults is the other name of inject's n_faults.
    (["inject", "--faults", "5"], InjectionSpec(n_faults=5)),
    (["inject", "--config", "degraded", "--blocks", "mapped-out"],
     InjectionSpec(counts=(1,) * 6, blocks=MAPPED_OUT)),
    (["inject", "--blocks", "mapped-out"],
     InjectionSpec(blocks=MAPPED_OUT)),
    (["decide", "--benchmarks", "gzip", "--faults", "8", "--instructions",
      "600", "--warmup", "200", "--inject-benchmark", "mcf",
      "--inject-instructions", "600", "--golden-cache", "--seed", "3",
      "--node", "22", "--growth", "40", "--stagnation", "65",
      "--chunk-size", "2", "--top", "3"],
     DecideSpec(benchmarks=("gzip",), n_instructions=600, warmup=200,
                inject_benchmark="mcf", inject_instructions=600,
                n_faults=8, inject_seed=3, golden_cache=True, node_nm=22.0,
                growth=0.4, stagnation_node_nm=65.0, chunk_size=2)),
    (["decide"], DecideSpec()),
    (["repair", "--model", "rescue-broken", "--tiny", "--breaks", "3",
      "--break-seed", "9", "--patterns", "96", "--isolation-faults", "4",
      "--seed", "2", "--chunk-size", "5"],
     RepairSpec(model="rescue-broken", tiny=True, n_breaks=3,
                break_seed=9, n_patterns=96, n_isolation_faults=4, seed=2,
                chunk_size=5)),
    (["repair"], RepairSpec(tiny=False)),
]


def _spec_of(argv):
    args = build_parser().parse_args(argv)
    spec_cls = REGISTRY[args.campaign].spec_cls
    fixed = _inject_overrides(args) if argv[0] == "inject" else {}
    return spec_from_args(spec_cls, args, **fixed)


class TestCommandLineSpecs:
    @pytest.mark.parametrize(
        "argv,expected", TABLE, ids=[" ".join(a) for a, _ in TABLE]
    )
    def test_argv_names_exactly_this_spec(self, argv, expected):
        spec = _spec_of(argv)
        assert spec == expected
        # Same values, same types: the spec hash cannot drift.
        assert repr(asdict(spec)) == repr(asdict(expected))

    def test_run_seed_default_is_the_spec_default(self):
        # `repro run` lost its private --seed 1 default.
        assert _spec_of(["run", "montecarlo"]) == MonteCarloSpec()
        assert _spec_of(["run", "inject"]) == InjectionSpec()
        assert _spec_of(["run", "repair", "--tiny"]) == RepairSpec()

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_runner_flags_on_every_campaign(self, name, tmp_path):
        args = build_parser().parse_args([
            "run", name, "--workers", "3", "--resume", "--no-checkpoint",
            "--cache-dir", str(tmp_path), "--trace", "t.jsonl",
        ])
        assert (args.workers, args.resume, args.no_checkpoint) == (
            3, True, True
        )
        assert args.cache_dir == str(tmp_path)
        assert args.trace == "t.jsonl"

    def test_every_flagged_field_is_covered_by_the_table(self):
        covered = {
            (type(spec), f.name)
            for _argv, spec in TABLE
            for f in fields(spec)
            if getattr(spec, f.name) != f.default
        }
        for campaign in REGISTRY.values():
            for f, decl, shape in spec_params(campaign.spec_cls):
                if decl.flags:
                    assert (campaign.spec_cls, f.name) in covered, f.name


class TestUsageErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["run", "montecarlo", "--chunk-size", "0"], "chunk_size"),
        (["run", "montecarlo", "--faults", "9"], "--faults"),
        (["run", "montecarlo", "--faults", "9", "--tiny"], "--faults"),
        (["run", "montecarlo", "--growth", "abc"], "--growth"),
        (["run", "montecarlo", "--node", "-1"], "node_nm"),
        (["run", "montecarlo", "--chips", "10000000"], "n_chips"),
        (["run", "ipc", "--benchmarks", "nope"], "apsi"),
        (["run", "ipc", "--seed", "3"], "--seed"),
        (["run", "decide", "--benchmarks", "nope"], "apsi"),
        (["run", "decide", "--chunk-size", "0"], "chunk_size"),
        (["run", "repair", "--chunk-size", "0"], "chunk_size"),
        (["run", "isolation", "--faults", "1000000"], "n_faults"),
        (["run", "inject", "--instructions", "2000000"], "n_instructions"),
        (["inject", "--instructions", "0"], "n_instructions"),
        (["decide", "--stagnation", "45"], "--stagnation"),
    ])
    def test_exit_2(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-checkpoint"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert needle in err
        if "--benchmarks" in argv:
            assert all(name in err for name in ALL_BENCHMARKS)


REPO = Path(__file__).resolve().parents[1]


class TestSubmitParams:
    @pytest.mark.parametrize("params,needle", [
        ("not json", "--params is not valid JSON"),
        ("[1, 2]", "--params must be a JSON object"),
    ])
    def test_bad_params_exit_without_traceback(self, params, needle):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "montecarlo",
             "--params", params, "--url", "http://127.0.0.1:9"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        assert proc.returncode != 0
        assert proc.stderr.startswith(needle)
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# Hostile params over real HTTP, generated from the declarations
# ----------------------------------------------------------------------

_BAD_TYPE = {int: [True, "5"], float: ["abc"], str: [5], bool: [1]}


def _good(f, decl):
    """A legal element of the field (tuple fields: one element)."""
    if decl.choices is not None:
        return decl.choices[0]
    return f.default[0] if isinstance(f.default, tuple) else f.default


def _sized(f, decl, shape, n):
    """A JSON value of the field: ``n`` itself, or ``n`` legal elements."""
    return [_good(f, decl)] * int(n) if shape[2] else n


def _outside(decl, kind):
    if kind is str:
        return "nonesuch"
    if kind is bool:
        return not decl.choices[0]
    return max(decl.choices) + 1


def hostile_cases():
    """``(campaign, field, params)`` every one of which must be a 400."""
    for name, campaign in REGISTRY.items():
        for f, decl, shape in spec_params(campaign.spec_cls):
            kind, _optional, is_tuple = shape
            wrap = (lambda v: [v] * max(1, int(decl.lo or 1))) if is_tuple \
                else (lambda v: v)
            if decl.lo is not None:
                yield name, f.name, {f.name: _sized(f, decl, shape,
                                                    decl.lo - 1)}
            if decl.hi is not None:
                yield name, f.name, {f.name: _sized(f, decl, shape,
                                                    decl.hi + 1)}
            if decl.choices is not None:
                yield name, f.name, {f.name: wrap(_outside(decl, kind))}
            for bad in _BAD_TYPE[kind]:
                yield name, f.name, {f.name: wrap(bad)}


# The defects the declarations fixed, by name: each was queued before.
HEAD_DEFECTS = [
    ("montecarlo", "growth", {"growth": "abc"}),
    ("montecarlo", "node_nm", {"node_nm": -1}),
    ("isolation", "n_faults", {"n_faults": True}),
    ("inject", "blocks", {"blocks": ["nope"]}),
    ("ipc", "benchmarks", {"benchmarks": ["nope"]}),
    ("decide", "benchmarks", {"benchmarks": ["nope"]}),
    ("montecarlo", "chunk_size", {"chunk_size": 0}),
    ("repair", "chunk_size", {"chunk_size": 0}),
    ("decide", "chunk_size", {"chunk_size": 0}),
    ("decide", "inject_chunk", {"inject_chunk": 0}),
    ("inject", "n_instructions", {"n_instructions": 0}),
    ("inject", "n_instructions", {"n_instructions": 10 ** 9}),
    ("ipc", "n_instructions", {"n_instructions": 10 ** 9}),
    ("isolation", "n_faults", {"n_faults": 10 ** 9}),
    ("montecarlo", "n_chips", {"n_chips": 10 ** 9}),
    ("montecarlo", "growth", {"growth": float("nan")}),
    ("montecarlo", "node_nm", {"node_nm": float("inf")}),
    ("montecarlo", "node_nm", {"node_nm": 10 ** 400}),
]


def test_hostile_params_are_400_and_bounds_are_accepted(tmp_path):
    cases = list(hostile_cases())
    assert len(cases) > 100  # generated, not hand-listed
    with service_fixture(
        tmp_path, service_workers=0, queue_size=1000
    ) as (client, service):
        for campaign, name, params in cases + HEAD_DEFECTS:
            with pytest.raises(ServiceError) as err:
                client.submit(campaign, params)
            assert err.value.status == 400, (campaign, params)
            assert name in str(err.value), (campaign, params, err.value)
        for params in ([1], "x", 5):  # not a JSON object at all
            with pytest.raises(ServiceError) as err:
                client.submit("montecarlo", params)
            assert err.value.status == 400
        assert service.queue.snapshot_all() == []
        # The bounds themselves are legal (nothing runs: no workers).
        for name, campaign in REGISTRY.items():
            for f, decl, shape in spec_params(campaign.spec_cls):
                for bound in (decl.lo, decl.hi):
                    if bound is not None:
                        params = {f.name: _sized(f, decl, shape, bound)}
                        assert client.submit(name, params)["job"]
        assert service.queue.snapshot_all()


def test_every_campaign_spec_is_declared():
    for campaign in REGISTRY.values():
        assert issubclass(campaign.spec_cls, Spec)
        assert "__post_init__" not in vars(campaign.spec_cls)
        # Every field carries a declaration (spec_params raises if not).
        assert len(spec_params(campaign.spec_cls)) == len(
            fields(campaign.spec_cls)
        )


def test_declared_check_never_rewrites_a_value():
    spec = MonteCarloSpec(node_nm=22, n_chips=10)
    assert type(spec.node_nm) is int  # int accepted for float, kept
    assert asdict(spec)["node_nm"] == 22
