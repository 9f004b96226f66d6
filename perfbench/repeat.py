#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and summarise the runs.

    python3 perfbench/repeat.py --workload cv-many-small --seeds 1 2 3 4 5
    python3 perfbench/repeat.py --workload cv-standard --seeds 1 2 3 --overhead

For each end-to-end metric it prints the median over the runs, the spread
(the distance between the first and third quartile, as a share of the
median) and the bound BENCHMARK.json fixes for it. With ``--overhead`` each
seed also runs traced, and the table adds the traced median of each timing
and its difference from the untraced one: the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    info, result = (json.loads(line) for line in out.splitlines()[-2:])
    print(json.dumps({"seed": seed, "trace": trace, "wall_s": info["wall_s"],
                      "reference_block": info["reference_block"]}),
          file=sys.stderr, flush=True)
    if not result["correct"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} "
                 f"operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    plain, traced = [], []
    for seed in args.seeds:
        plain.append(run_once(args.workload, seed, args.seconds, 0))
        if args.overhead:
            traced.append(run_once(args.workload, seed, args.seconds, 1))
        print(json.dumps({"seed": seed, "untraced": plain[-1],
                          "traced": traced[-1] if traced else None}),
              flush=True)

    print(f"{args.workload}: {len(plain)} runs, seeds {args.seeds}")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in plain]
        line = (f"  {name:24s} median {statistics.median(values):12.6g} "
                f"{metric['unit']:9s} spread {spread(values):7.2%} "
                f"bound {metric['bound']:.0%}")
        if traced and f"traced.{name}" in traced[0]:
            t = statistics.median(r[f"traced.{name}"] for r in traced)
            diff = t - statistics.median(values)
            line += (f"  traced {t:12.6g} overhead {diff:+.6g} "
                     f"({diff / statistics.median(values):+.2%})")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
