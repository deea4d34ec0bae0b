#!/usr/bin/env python
"""Cache sizing study: how much flash — and how little RAM — do you need?

Two of the paper's most actionable results, reproduced on a small
workload:

1. Flash sizing (§7.2/Figure 4): read latency vs. flash size for a
   fixed workload — the win is dramatic once the working set fits.
2. The tiny-RAM configuration (§7.5/Figure 6): with a big flash cache
   and asynchronous write-through, the RAM file cache can shrink to a
   write buffer, freeing memory for applications.

Run:  python examples/cache_sizing.py
"""

from repro import KB, MB, SimConfig, run_simulation
from repro.fsmodel import ImpressionsConfig
from repro.policies import WritebackPolicy
from repro.tracegen import TraceGenConfig, generate_trace


def build_workload():
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=96 * MB, max_file_bytes=4 * MB),
        working_set_bytes=8 * MB,
        seed=3,
    )
    return generate_trace(config)


def flash_sizing(trace) -> None:
    print("1) Read latency vs. flash cache size (1 MB RAM)")
    print("%12s %12s %12s" % ("flash", "read (us)", "flash hits"))
    for flash_mb in (0, 2, 4, 8, 16):
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=flash_mb * MB)
        results = run_simulation(trace, config)
        hit_rate = results.hit_rate("flash")
        print(
            "%9d MB %12.1f %12s"
            % (
                flash_mb,
                results.read_latency_us,
                "-" if hit_rate is None else "%.0f%%" % (100 * hit_rate),
            )
        )
    print()


def ram_shrinking(trace) -> None:
    print("2) Shrinking RAM under a 16 MB flash (async write-through)")
    print("%12s %12s %12s" % ("RAM", "read (us)", "write (us)"))
    for ram_kb in (0, 4, 16, 64, 256, 1024):
        config = SimConfig(
            ram_bytes=ram_kb * KB,
            flash_bytes=16 * MB,
            ram_policy=WritebackPolicy.asynchronous(),
            flash_policy=WritebackPolicy.asynchronous(),
        )
        results = run_simulation(trace, config)
        print(
            "%9d KB %12.1f %12.1f"
            % (ram_kb, results.read_latency_us, results.write_latency_us)
        )
    print(
        "\nNote the knee: a few dozen KB of RAM already restores RAM-speed\n"
        "writes — the rest of memory can go to the application (§7.5)."
    )


def main() -> None:
    trace = build_workload()
    flash_sizing(trace)
    ram_shrinking(trace)


if __name__ == "__main__":
    main()
