"""The three paper campaigns as :class:`~repro.runner.protocol.Campaign`\\ s.

Each campaign's frozen *spec* dataclass captures every parameter that
affects the result — its ``asdict`` is hashed into the checkpoint key,
so a resumed run can only ever continue the identical campaign.  Shard
payloads are JSON-serializable and merge in shard order through
explicit ``merge()`` methods, so the final result is bit-identical for
any worker count and chunk size.

- **isolation** — the Section 6.1 random-fault insertion experiment,
  sharded by contiguous fault chunks of the deterministic sample;
- **montecarlo** — the Section 6.3 chip-sampling YAT check, sharded by
  chip index ranges (each chip has its own derived RNG stream);
- **ipc** — the degraded-configuration IPC sweep behind Figure 9,
  sharded by (benchmark, configuration) simulation items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import (
    IsolationStats,
    generate_tests,
    isolation_experiment,
    sample_isolation_faults,
)
from repro.runner.protocol import Campaign, Spec, context, param
from repro.runner.seeding import shard_ranges
from repro.workloads import BENCHMARKS
from repro.yieldmodel.montecarlo import (
    ChipSpan,
    MonteCarloResult,
    campaign_params,
    sample_chip_span,
)
from repro.yieldmodel.pwp import FaultDensityModel


# ----------------------------------------------------------------------
# Campaign 1: random-fault isolation (Section 6.1)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IsolationSpec(Spec):
    """Everything that determines the isolation campaign's outcome."""

    tiny: bool = param(True, flag="--tiny", help="use the small model")
    baseline: bool = param(False, flag="--baseline",
                           help="run on the non-ICI baseline")
    atpg_seed: int = param(0, lo=0, help="ATPG pattern seed")
    fault_seed: int = param(1, flag="--seed", lo=0, help="fault-sample seed")
    n_faults: int = param(600, flag="--faults", lo=1, hi=100_000,
                          help="faults inserted")
    max_deterministic: Optional[int] = param(
        None, lo=0, help="cap on deterministic ATPG targets")
    # Part of the spec hash (checkpoint keys, job ids, recorded digests),
    # so the field stays; the bit-packed engine is its only legal value.
    backend: str = param("word", choices=("word",), help="retired")
    chunk_size: int = param(50, flag="--chunk-size", lo=1,
                            help="faults per shard")


class IsolationCampaign(Campaign):
    """Bit-identical to the serial ``isolation_experiment`` for any
    ``workers``/``chunk_size``: all stats are integer counts over a
    deterministic fault sample partitioned by contiguous chunks."""

    name = "isolation"
    title = "random-fault scan isolation (§6.1)"
    spec_cls = IsolationSpec
    result_cls = IsolationStats

    def setup(self, spec: IsolationSpec):
        """``(TestSetup, fault sample)``: netlist, ATPG vectors, faults."""
        params = RtlParams.tiny() if spec.tiny else RtlParams()
        builder = build_baseline_rtl if spec.baseline else build_rescue_rtl
        model = builder(params)
        setup = generate_tests(
            model,
            seed=spec.atpg_seed,
            max_deterministic=spec.max_deterministic,
        )
        faults = sample_isolation_faults(
            model.netlist, spec.n_faults, spec.fault_seed
        )
        # Warm the tester's gold-response cache here, not in the first
        # shard: every process (inline, forked, or spawn-initialized)
        # then enters its shards with identical cache state, which keeps
        # per-shard telemetry counters independent of worker count.
        setup.tester.good_response(setup.atpg.patterns)
        return setup, faults

    def items(self, spec: IsolationSpec) -> List[Tuple[int, int]]:
        _setup, faults = context(self, spec)
        return shard_ranges(len(faults), spec.chunk_size)

    def work(self, ctx, span: Tuple[int, int]) -> Dict:
        setup, faults = ctx
        start, stop = span
        stats = isolation_experiment(setup, faults=faults[start:stop])
        return stats.to_json()


ISOLATION = IsolationCampaign()
run_isolation = ISOLATION.run


def prepare_isolation(spec: IsolationSpec):
    """Build the test setup in the calling process and return it.

    Call before :func:`run_isolation` so that (a) the netlist, ATPG
    vectors, and fault sample are built exactly once, and (b) forked
    workers inherit them instead of rebuilding — the compiled netlist is
    never pickled per fault.
    """
    return context(ISOLATION, spec)[0]


# ----------------------------------------------------------------------
# Campaign 2: Monte Carlo YAT sampling (Section 6.3)
# ----------------------------------------------------------------------

def analytic_penalty_table(full_ipc: float = 2.0):
    """The analytic degraded-IPC table used by the CLI's quick YAT mode."""
    from repro.yieldmodel.yat import flat_rescue_ipc

    def penalty(cfg) -> float:
        factor = 1.0
        for dim, cost in (("frontend", 0.82), ("int_backend", 0.78),
                          ("fp_backend", 0.96), ("iq_int", 0.93),
                          ("iq_fp", 0.98), ("lsq", 0.94)):
            if getattr(cfg, dim) == 1:
                factor *= cost
        return factor

    return flat_rescue_ipc(full_ipc, penalty)


def _percent(text: str) -> float:
    """``--growth``'s whole percent as the spec's fraction."""
    return int(text) / 100


def _whole(text: str) -> float:
    """``--stagnation``'s whole nanometres as the spec's float."""
    return float(int(text))


#: Yield-scenario fields shared by the montecarlo and decide specs.
NODE_NM = dict(flag="--node", lo=1.0, hi=1000.0, help="technology node in nm")
GROWTH = dict(flag="--growth", parse=_percent, lo=0.0, hi=10.0,
              help="core growth per generation (flag: whole percent)")
STAGNATION = dict(flag="--stagnation", parse=_whole, choices=(90.0, 65.0),
                  help="node in nm where PWP stops improving")


@dataclass(frozen=True)
class MonteCarloSpec(Spec):
    """Everything that determines the chip-sampling campaign's outcome."""

    node_nm: float = param(32.0, **NODE_NM)
    growth: float = param(0.3, **GROWTH)
    stagnation_node_nm: float = param(90.0, **STAGNATION)
    baseline_ipc: float = param(2.05, lo=0.01, help="no-redundancy IPC")
    full_ipc: float = param(2.0, lo=0.01, help="fault-free Rescue IPC")
    n_chips: int = param(2000, flag="--chips", lo=1, hi=1_000_000,
                         help="chips sampled")
    seed: int = param(0, flag="--seed", lo=0, help="chip-sampling seed")
    anchor_node_nm: float = param(90.0, lo=1.0, hi=1000.0,
                                  help="node of the one-core anchor chip")
    anchor_cores: int = param(1, lo=1, help="cores at the anchor node")
    chunk_size: int = param(250, flag="--chunk-size", lo=1,
                            help="chips per shard")


class MonteCarloCampaign(Campaign):
    """Bit-identical to ``simulate_chips`` with the same parameters:
    chips carry index-derived RNG streams, spans merge by concatenation,
    and the single final reduction uses exactly-rounded summation."""

    name = "montecarlo"
    title = "chip-sampling YAT check (§6.3)"
    spec_cls = MonteCarloSpec
    result_cls = MonteCarloResult

    def setup(self, spec: MonteCarloSpec) -> Dict[str, Any]:
        density = FaultDensityModel(
            stagnation_node_nm=spec.stagnation_node_nm
        )
        k, alpha, theta, groups = campaign_params(
            density,
            spec.node_nm,
            spec.growth,
            (spec.anchor_node_nm, spec.anchor_cores),
        )
        return dict(
            spec=spec,
            cores=k,
            alpha=alpha,
            theta=theta,
            groups=groups,
            ipc=analytic_penalty_table(spec.full_ipc),
        )

    def items(self, spec: MonteCarloSpec) -> List[Tuple[int, int]]:
        return shard_ranges(spec.n_chips, spec.chunk_size)

    def work(self, ctx, span: Tuple[int, int]) -> Dict:
        start, stop = span
        spec: MonteCarloSpec = ctx["spec"]
        result = sample_chip_span(
            start,
            stop,
            spec.seed,
            ctx["cores"],
            ctx["alpha"],
            ctx["theta"],
            ctx["groups"],
            ctx["ipc"],
            spec.baseline_ipc,
        )
        return result.to_json()

    def merge(self, spec, ctx, payloads) -> MonteCarloResult:
        if not payloads:
            return MonteCarloResult(0, 0.0, 0.0, 0.0, 0.0)
        merged = ChipSpan.from_json(payloads[0])
        for payload in payloads[1:]:
            merged = merged.merge(ChipSpan.from_json(payload))
        return MonteCarloResult.from_span(merged, ctx["cores"])


MONTECARLO = MonteCarloCampaign()
run_montecarlo = MONTECARLO.run


# ----------------------------------------------------------------------
# Campaign 3: degraded-configuration IPC sweep (Figure 9 inputs)
# ----------------------------------------------------------------------

#: The measured-run fields shared by the ipc and decide specs.
INSTRUCTIONS = dict(flag="--instructions", lo=1, hi=1_000_000,
                    help="measured instructions per IPC point")
WARMUP = dict(flag="--warmup", lo=0, hi=1_000_000,
              help="warm-up instructions before measuring")


@dataclass(frozen=True)
class IpcSweepSpec(Spec):
    """Everything that determines the IPC-sweep campaign's outcome."""

    benchmarks: Tuple[str, ...] = param(
        BENCHMARKS, flag="--benchmarks", lo=1, choices=BENCHMARKS,
        help="benchmark names")
    n_instructions: int = param(20_000, **INSTRUCTIONS)
    warmup: int = param(12_000, **WARMUP)
    seed: int = param(12345, lo=0, help="trace seed")
    compose: bool = param(True, flag="--full", sets=False,
                          help="simulate all 64 configs instead of composing")
    chunk_size: int = param(1, flag="--chunk-size", lo=1,
                            help="IPC points per shard")


@dataclass
class IpcSweepResult:
    """Measured IPC per (benchmark, configuration key)."""

    measured: Dict[Tuple[str, Tuple[int, ...]], float] = field(
        default_factory=dict
    )

    def merge(self, other: "IpcSweepResult") -> "IpcSweepResult":
        """Union of two disjoint measurement sets (exact)."""
        merged = dict(self.measured)
        for item, ipc in other.measured.items():
            if item in merged and merged[item] != ipc:
                raise ValueError(
                    f"conflicting IPC for {item}: "
                    f"{merged[item]} vs {ipc}"
                )
            merged[item] = ipc
        return IpcSweepResult(merged)

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"benchmark": bench, "key": list(key), "ipc": ipc}
            for (bench, key), ipc in sorted(self.measured.items())
        ]

    @classmethod
    def from_json(cls, payload: List[Dict[str, Any]]) -> "IpcSweepResult":
        return cls(
            {
                (rec["benchmark"], tuple(rec["key"])): rec["ipc"]
                for rec in payload
            }
        )

    def summary(self) -> str:
        benches = sorted({bench for bench, _ in self.measured})
        lines = [f"ipc sweep: {len(self.measured)} measurements"]
        for bench in benches:
            ipcs = [
                ipc for (b, _), ipc in self.measured.items() if b == bench
            ]
            lines.append(
                f"  {bench:10s} best {max(ipcs):.3f}  "
                f"worst {min(ipcs):.3f}"
            )
        return "\n".join(lines)

    def tables(
        self, compose: bool = True
    ) -> Dict[str, Dict[Tuple[int, ...], float]]:
        """Per-benchmark 64-entry IPC tables (the ``YatModel`` input).

        With ``compose=True`` the 57 multi-degradation entries are
        composed multiplicatively from the measured single-degradation
        ratios (clamped at 1, as in ``rescue_ipc_table``); otherwise
        every measured entry is used directly.
        """
        from repro.cpu.degraded import compose_ipc_table
        from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

        full_key = CoreCounts().key()
        by_bench: Dict[str, Dict[Tuple[int, ...], float]] = {}
        benches = sorted({bench for bench, _ in self.measured})
        for bench in benches:
            full = self.measured[(bench, full_key)]
            if compose:
                ratios = {}
                for dim in DIMENSIONS:
                    key = CoreCounts(**{dim: 1}).key()
                    measured = (
                        self.measured[(bench, key)] / full if full else 0.0
                    )
                    ratios[dim] = min(1.0, measured)
                by_bench[bench] = compose_ipc_table(full, ratios)
            else:
                by_bench[bench] = {
                    key: min(full, ipc) if key != full_key else full
                    for (b, key), ipc in self.measured.items()
                    if b == bench
                }
        return by_bench


def ipc_sweep_items(
    spec: IpcSweepSpec,
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The campaign's work list: (benchmark, configuration key) pairs.

    Compose mode simulates the full configuration plus the six
    single-degradation points per benchmark; full mode all 64.
    """
    from repro.yieldmodel.configs import CoreCounts, enumerate_configs

    if spec.compose:
        configs = [CoreCounts()] + [
            CoreCounts(**{dim: 1})
            for dim in ("frontend", "int_backend", "fp_backend",
                        "iq_int", "iq_fp", "lsq")
        ]
    else:
        configs = list(enumerate_configs())
    return [
        (bench, cfg.key())
        for bench in spec.benchmarks
        for cfg in configs
    ]


def simulate_points(
    points, n_instructions: int, seed: int, warmup: int
) -> List[Dict[str, Any]]:
    """IPC of each (benchmark, configuration key) point, as shard JSON."""
    from repro.cpu.degraded import degraded_params, simulate_config
    from repro.cpu.params import MachineConfig
    from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

    out = []
    for bench, key in points:
        counts = CoreCounts(**dict(zip(DIMENSIONS, key)))
        config = degraded_params(MachineConfig(rescue=True), counts)
        ipc = simulate_config(
            bench, config, n_instructions=n_instructions, seed=seed,
            warmup=warmup,
        )
        out.append({"benchmark": bench, "key": list(key), "ipc": ipc})
    return out


class IpcSweepCampaign(Campaign):
    """Each item is an independent deterministic simulation (trace
    seeded, machine config derived from the key), so results are
    trivially bit-identical across worker counts."""

    name = "ipc"
    title = "degraded-configuration IPC sweep (Figure 9)"
    spec_cls = IpcSweepSpec
    result_cls = IpcSweepResult

    def items(self, spec: IpcSweepSpec) -> List[List]:
        points = ipc_sweep_items(spec)
        return [
            points[start:stop]
            for start, stop in shard_ranges(len(points), spec.chunk_size)
        ]

    def work(self, spec: IpcSweepSpec, chunk) -> List[Dict]:
        return simulate_points(
            chunk, spec.n_instructions, spec.seed, spec.warmup
        )


IPC = IpcSweepCampaign()
run_ipc_sweep = IPC.run
