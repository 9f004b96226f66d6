#!/usr/bin/env python3
"""Deployment half of the benchmark, in a fresh process of its own.

    python3 perfbench/deploy.py JOBS.json --seconds 8 --trace 0

``run.py`` starts it once its cross-validation is done, so that deployment
runs as it would in use: a process that loads a stored model and classifies
subjects, without the heap a cross-validation leaves behind. It inherits the
thread variables ``run.py`` pins.

JOBS.json lists one job per fold: the stored fold model, its held-out
subjects (id, the two field files, label) and the labels and scores the
cross-validation gave them. After one untimed warm-up over the first job,
the jobs run in turn for ``--seconds`` of wall time, each at least once. A
job loads its stored model and classifies its subjects one at a time, each
from its two field files, and checks every label and score against the
job's.

The last stdout line is a JSON object: per-subject latencies and the
passes' total time in reference seconds (``refclock.py``), the wall time,
passes, the warm-up's subject count, failed checks (warm-up included), the
reference block's median, peak RSS and, with ``--trace 1``, the ``deploy.``
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sslhop as sh  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402

SCORE_TOL = 1e-9          # stored-model scores against in-memory scores


def deploy(job: dict) -> tuple[int, list]:
    """Load a job's stored model, then classify each subject from its two
    field files; returns the failed checks and per-subject (start, end)
    readings."""
    model = sh.load_model(job["model"])
    labels, scores, latencies = [], [], []
    for subject_id, ed_path, es_path, label in job["subjects"]:
        t0 = time.perf_counter()
        sample = sh.assemble_sample(sh.read_field(ed_path),
                                    sh.read_field(es_path), model.config,
                                    label, subject_id)
        predicted, score = sh.predict_samples(model, [sample])
        latencies.append((t0, time.perf_counter()))
        labels.append(predicted[0])
        scores.append(score[0])
    close = np.isclose(scores, job["scores"], rtol=SCORE_TOL, atol=SCORE_TOL)
    bad = int(np.count_nonzero((np.array(labels) != job["labels"])
                               | ~close.all(axis=1)))
    if bad:
        print(f"check failed: {bad} deployed predictions differ from the "
              f"in-memory ones", file=sys.stderr)
    return bad, latencies


def deployment(jobs: list, seconds: float):
    """Jobs in turn for ``seconds`` of wall time, each job at least once;
    returns per-subject and total (start, end) readings, the passes made
    (a fraction once time runs out within a pass) and failed checks."""
    latencies, done, failed = [], 0, 0
    start = time.perf_counter()
    while done < len(jobs) or time.perf_counter() - start < seconds:
        bad, lat = deploy(jobs[done % len(jobs)])
        latencies += lat
        failed += bad
        done += 1
    return latencies, (start, time.perf_counter()), done / len(jobs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("jobs", type=Path)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path,
                        help="span file to write when tracing")
    args = parser.parse_args(argv)
    jobs = json.loads(args.jobs.read_text())

    warm_up_failed, _ = deploy(jobs[0])
    clock = refclock.RefClock()
    tracer = spans.Tracer()
    with clock.running():
        with tracer.installed(sh) if args.trace else contextlib.nullcontext():
            latencies, span, passes, failed = deployment(jobs, args.seconds)
    deploy_s = clock.seconds(*span)
    metrics = {}
    if args.trace:
        metrics = tracer.span_metrics(spans.DEPLOYED, "deploy.", deploy_s,
                                      clock.seconds)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps({
        "latency_s": [clock.seconds(*lat) for lat in latencies],
        "deploy_s": deploy_s,
        "wall_s": span[1] - span[0],
        "passes": passes,
        "warm_up_subjects": len(jobs[0]["subjects"]),
        "failed": warm_up_failed + failed,
        "block_median_s": clock.block_median(),
        "ticks": len(clock.ticks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
