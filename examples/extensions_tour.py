#!/usr/bin/env python
"""Tour of the reproduction's extensions beyond the paper.

Four questions the paper raises but leaves open, answered on a small
workload:

1. §3.2 — does a smarter (migration/exclusive) placement beat the
   simple architectures?
2. §3.6 — would trickle or delayed writeback have mattered?
3. §7.8 — what does the recovery phase actually cost?
4. §8  — what does a non-free FTL do to the cache's writes?

Run:  python examples/extensions_tour.py
"""

from repro import MB, Architecture, RestartSpec, SimConfig, run_simulation
from repro.fsmodel import ImpressionsConfig
from repro.policies import WritebackPolicy
from repro.tracegen import TraceGenConfig, generate_trace


def build_workload():
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=96 * MB, max_file_bytes=4 * MB),
        working_set_bytes=10 * MB,  # slightly over the 8 MB flash
        seed=41,
    )
    return generate_trace(config)


def placement(trace) -> None:
    print("1) Placement (§3.2): naive vs unified vs exclusive (migration)")
    for architecture in (Architecture.NAIVE, Architecture.UNIFIED, Architecture.EXCLUSIVE):
        config = SimConfig(
            architecture=architecture, ram_bytes=1 * MB, flash_bytes=8 * MB
        )
        results = run_simulation(trace, config)
        print(
            "   %-10s read %6.1f us   write %5.1f us"
            % (architecture, results.read_latency_us, results.write_latency_us)
        )
    print()


def elaborate_policies(trace) -> None:
    print("2) Elaborate writeback policies (§3.6): all in one flat band?")
    for label in ("a", "p0.005", "t0.005", "d0.005"):
        config = SimConfig(
            ram_bytes=1 * MB,
            flash_bytes=8 * MB,
            ram_policy=WritebackPolicy.parse(label),
        )
        results = run_simulation(trace, config)
        print(
            "   ram=%-7s read %6.1f us   write %5.1f us"
            % (label, results.read_latency_us, results.write_latency_us)
        )
    print()


def recovery_cost(trace) -> None:
    print("3) Recovery (§7.8): crash vs recover, with a metadata scan")
    config = SimConfig(ram_bytes=1 * MB, flash_bytes=8 * MB, persistent_flash=True)
    cases = [
        ("volatile crash", RestartSpec.crash_volatile()),
        ("instant recovery", RestartSpec.instant_recovery()),
        ("scan 50us/block", RestartSpec.recover_persistent(50_000)),
    ]
    for name, spec in cases:
        results = run_simulation(trace, config, restart=spec)
        print("   %-17s read %6.1f us" % (name, results.read_latency_us))
    print()


def ftl_cost(trace) -> None:
    print("4) A non-free FTL (§8): write amplification under cache churn")
    base = SimConfig(ram_bytes=1 * MB, flash_bytes=8 * MB)
    for name, config in (
        ("free FTL (paper)", base),
        ("page-mapped FTL", base.with_overrides(ftl_model=True)),
    ):
        results = run_simulation(trace, config)
        amplification = results.flash_write_amplification or 1.0
        print(
            "   %-17s read %6.1f us   write %5.1f us   WA %.2f"
            % (name, results.read_latency_us, results.write_latency_us, amplification)
        )


def main() -> None:
    trace = build_workload()
    placement(trace)
    elaborate_policies(trace)
    recovery_cost(trace)
    ftl_cost(trace)


if __name__ == "__main__":
    main()
