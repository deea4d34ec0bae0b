#!/usr/bin/env python
"""Design-space sweep: architectures x writeback policies.

A miniature of the paper's Figure 2 study.  It answers the paper's two
headline design questions on a workload you can run over coffee:

* Does the writeback policy matter?  (No — unless it results in
  synchronous writes to the file server.)
* Which architecture wins?  (Unified reads slightly faster thanks to
  its larger effective capacity; naive/lookaside write at RAM speed.)

Run:  python examples/design_space_sweep.py
"""

from repro import MB, Architecture, SimConfig, run_simulation
from repro.fsmodel import ImpressionsConfig
from repro.policies import WritebackPolicy
from repro.tracegen import TraceGenConfig, generate_trace


def build_workload():
    """A working set slightly too big for the flash (the interesting case)."""
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=96 * MB, max_file_bytes=4 * MB),
        working_set_bytes=10 * MB,
        write_fraction=0.30,
        seed=7,
    )
    return generate_trace(config)


def main() -> None:
    trace = build_workload()
    policies = [
        WritebackPolicy.sync(),
        WritebackPolicy.asynchronous(),
        WritebackPolicy.periodic(0.001),  # scaled-down "p1"
        WritebackPolicy.none(),
    ]

    print("%-10s %-6s %-6s %10s %10s" % ("arch", "ram", "flash", "read(us)", "write(us)"))
    print("-" * 48)
    for architecture in Architecture:
        for ram_policy in policies:
            for flash_policy in policies:
                config = SimConfig(
                    architecture=architecture,
                    ram_bytes=1 * MB,
                    flash_bytes=8 * MB,
                    ram_policy=ram_policy,
                    flash_policy=flash_policy,
                )
                results = run_simulation(trace, config)
                print(
                    "%-10s %-6s %-6s %10.1f %10.1f"
                    % (
                        architecture,
                        ram_policy,
                        flash_policy,
                        results.read_latency_us,
                        results.write_latency_us,
                    )
                )
        print("-" * 48)
    print(
        "\nLook for: tall write latencies only on the 's' rows (and the\n"
        "'n'/'n' corner), unified's lower reads, and ~flat everything else."
    )


if __name__ == "__main__":
    main()
