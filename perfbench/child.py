"""One repetition of a serial workload, in a fresh process.

``perfbench/run.py`` launches this once per repetition and
reads one JSON object from the last line of standard output.  It holds
``time.monotonic()`` stamps (the clock is shared by every process), from
which ``run.py`` takes set-up (launch until ``repro.api`` is imported)
and wall time (the ``run_campaign`` call)::

    python3 perfbench/child.py SPEC_JSON [--trace] [--trace-out FILE]

The spec runs through a serial ``Engine`` with no persistent memo
store, exactly as ``python -m repro figure7`` runs its grid.  With
``--trace`` every layer function is wrapped (see ``tracer.py``) and the
per-layer metrics are included; ``--trace-out`` also writes the spans
as Chrome trace-event JSON.
"""

import time

from repro.api import CampaignSpec, Engine

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec", help="campaign spec as a JSON object")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    spec = CampaignSpec.from_dict(json.loads(args.spec))
    started = time.monotonic()
    recorder = None
    if args.trace:
        from tracer import SpanRecorder, instrument, write_chrome

        recorder = SpanRecorder()
        instrument(recorder)
    outcome = Engine(jobs=1, keep_going=True).run_campaign(spec)
    ended = time.monotonic()

    from repro.serve import result_fingerprint

    results = outcome.results
    report = {
        "imported": IMPORTED,
        "started": started,
        "ended": ended,
        "cells": spec.num_cells,
        "failed": len(outcome.failures),
        "fingerprint": result_fingerprint(results),
        "cell_digests": {r.key: result_fingerprint([r]) for r in results},
        "sim.accesses": sum(r.hits + r.misses for r in results),
        "sim.makespan_cycles": sum(r.makespan_cycles for r in results),
        "cache.misses": sum(r.misses for r in results),
    }
    if recorder is not None:
        from repro.cache.memo import TRACE_MEMO

        memo = TRACE_MEMO.stats()
        layers = recorder.layer_metrics()
        lookups = memo["hits"] + memo["misses"]
        layers["cache.analysis_lookups"] = lookups
        layers["cache.analysis_hit_ratio"] = memo["hits"] / lookups if lookups else 0.0
        report["layers"] = layers
        if args.trace_out is not None:
            write_chrome(args.trace_out, [recorder])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
