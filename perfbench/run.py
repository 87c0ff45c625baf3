"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload neural-decode --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Lines before the last describe the run (environment, each metric with its
unit, sample counts, failures); the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import env

MAX_FAILURE_LINES = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Set up, warm up and measure one workload. Returns (result, report
    lines); `result` is the object printed as the last line."""
    import calibration
    import layers
    import workloads as wl

    sizes = sizes or wl.SIZES[name]
    workload = wl.SETUPS[name](seed, sizes)
    # the other set-ups: all at once before a traced run; spread over the
    # timed window otherwise, so one slow stretch of the host cannot move
    # every set-up time together
    again = [lambda: wl.set_up_again(name, workload, sizes)] * (sizes.setups - 1)
    if trace:
        for task in again:
            task()
    wl.warm_up(workload, sizes)
    if trace:
        metrics, measurements, probed = layers.traced(workload, seconds, sizes)
    else:
        m = wl.measure(workload, seconds, between=again)
        metrics, measurements = wl.end_to_end(workload, m), (m,)
    attempted, failed, failures = wl.accounting(workload, measurements)

    lines = [
        f"environment {json.dumps(env.environment(seed), sort_keys=True)}",
        f"workload {name}  seed {seed}  trace {int(trace)}  requests {len(workload.requests)}"
        f"  passes {sum(len(m.passes) for m in measurements)}  setups {len(workload.setup_s)}",
    ]
    if not trace:
        lines.append(f"ms_per_token samples {len(wl.ms_per_token(m))}")
        kernel_us = calibration.REFERENCE_NS / wl.host_scale(m) / 1e3
        measured = (f"{s} {wl.tokens_per_s(m, s, calibrated=False):.6g}" for s in wl.SCHEMES)
        lines.append(
            f"calibration kernel {kernel_us:.1f} us (reference "
            f"{calibration.REFERENCE_NS / 1e3:g} us); uncalibrated tokens/s {' '.join(measured)}"
        )
    lines.extend(f"{metric} {value:.6g} {unit}" for metric, (value, unit) in metrics.items())
    if workload.train_s and not trace:
        steps_per_s = workload.train_steps / statistics.median(workload.train_s)
        lines.append(f"train_steps_per_s {steps_per_s:.6g} steps/s")
    if trace:
        lines.append("models.neural.mflop_per_call is counted from tensor shapes, not measured")
        lines.append(f"layers measured on a probe: {', '.join(probed) or 'none'}")
    lines.append(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    lines.extend(failures[:MAX_FAILURE_LINES])

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingSourceError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
