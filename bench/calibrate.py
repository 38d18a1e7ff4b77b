"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes, so the same code reads differently from one
run to the next. Each run therefore also times a fixed reference task that
does not touch lexitree, a few samples between consecutive blocks of
attempts, and reports each attempt's times at the reference speed:
measured time x reference seconds / (median of the samples taken just
before and just after its block).
A run on a host slowed by 30 % then reads as it would at the reference
speed. A change to lexitree moves the program's time and leaves the
reference task's time alone, so it moves the reported figure in full.
The report also prints every timing unscaled.

The reference task builds one entry with the benchmark's own generator
from a constant seed: random draws, string escaping, small objects, the
same kind of work the program does. It scales the in-process commands of
`big_entry` and `corpus`, and set-up, which is timed in fresh interpreters
that each run the task once after the timed imports.

The `python -m lexitree` processes of the `cli` workload are not scaled:
neither this task nor a bare interpreter start tracked their times (see
bench/README.md).
"""

from __future__ import annotations

import gc
import statistics
import time

import generate

# median seconds of the reference task with Python 3.11.7 on a 2-vCPU
# x86-64 shared host; scaled figures are in seconds of that host. The task
# is generate.py's code: a change there changes the task, and these values
# and every baseline must be measured again.
REFERENCE_S = 0.020
SETUP_REFERENCE_S = 0.0177  # the same task, run first in a fresh interpreter
REFERENCE_DEPTH = 5  # 364-node entry


def sample() -> float:
    """Seconds of one reference task, started after a full collection as
    each in-process command is."""
    gc.collect()
    start = time.perf_counter()
    generate.big_entry(0, depth=REFERENCE_DEPTH, n_queries=0)
    return time.perf_counter() - start


def scale(samples: list, reference_s: float = REFERENCE_S) -> float:
    """Factor from this host's seconds, as the samples show its speed, to
    reference seconds."""
    return reference_s / statistics.median(samples)
