"""Find the arrival rate at which serve-mix's server saturates.

Runs the serve-mix workload untraced at each rate in turn, from the
lowest, and stops at the first rate that fails: its run is invalid (the
generator ran late, lag p90 over the bound, or requests piled up, more
outstanding at the end of the schedule than the bound) or its p90 latency
is over serve-mix's latency limit.  The last rate that passed is the
saturation rate that ``spec.json`` records; serve-mix runs at a fixed
share of it.

Run from the repository root::

    python3 perfbench/saturation.py --seed 0 --seconds 15 --rates 8,16,24,32,36,40
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import run


def sweep(seed: int, seconds: float, rates: list[float]) -> float | None:
    """Print one line per rate; return the highest rate passed before the first failure."""
    from workloads import BACKLOG_END_BOUND, GENERATOR_LAG_BOUND_MS, LATENCY_LIMIT_MS

    limit = LATENCY_LIMIT_MS["serve-mix"]
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    highest_passed = None
    print(f"serve-mix saturation sweep, seed {seed}, {seconds:g} s a rate")
    print(
        f"bounds: generator lag p90 <= {GENERATOR_LAG_BOUND_MS:g} ms, "
        f"backlog <= {BACKLOG_END_BOUND}, request p90 <= {limit:g} ms"
    )
    for rate in sorted(rates):
        workdir = Path(tempfile.mkdtemp(prefix=f"saturation-{rate:g}-", dir=run.OUT_DIR))
        try:
            setup = run.set_up("serve-mix", seed, seconds, False, workdir, rate=rate)
            phase = run.run_phase("serve-mix", setup, seed, seconds, workdir, traced=False)
            failures = run.run_checks("serve-mix", setup, phase)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        load = phase.load
        lags = [r.lag_s * 1e3 for r in load.requests]
        e2e = run.end_to_end("serve-mix", setup, phase)
        p90 = e2e["request_ms_p90"][0]
        if p90 > limit:
            failures.append(f"request p90 {p90:.1f} ms is over the {limit:g} ms limit")
        print(
            f"rate {rate:6.2f}/s  requests {len(load.requests):4d}  "
            f"lag_p90 {run.percentile(lags, 90):8.1f} ms  backlog_end {load.backlog_end:4d}  "
            f"queue_depth_max {phase.queue_depth_max:4d}  "
            f"p90 {p90:8.1f} ms  goodput {e2e['goodput_rps'][0]:6.2f}/s  "
            f"{'FAILED' if failures else 'passed'}"
        )
        for failure in failures:
            print(f"  {failure}")
        if failures:
            break
        highest_passed = rate
    print(f"highest rate passed: {highest_passed}")
    return highest_passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--rates", default="8,16,24,32,36,40")
    args = parser.parse_args(argv)
    run._use_program_source()
    sweep(args.seed, args.seconds, [float(r) for r in args.rates.split(",")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
