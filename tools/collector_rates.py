#!/usr/bin/env python3
"""Collector throughput: multiplies/s, p-th powers/s and conjugates/s.

    PYTHONPATH=src python3 tools/collector_rates.py

The engine is imported from PYTHONPATH, so the same script measures any
checkout.  For each group (n = 3, 6, 8, 10) it draws a seeded sample of
elements and times the public `multiply` on consecutive pairs,
`power(a, p)` on each element, and `conjugate(a, g)` of each element by
the generators in turn.  One untimed pass first runs the
consistency check and fills the conjugate tables, so the figures are
for a warm presentation.  Each figure is the median of RUNS timed
passes over the same sample of SAMPLE elements drawn with SEED.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from thinville.catalog import resolve
from thinville.pcgroup import random_element

GROUPS = ("heisenberg-5", "sg-3_6-34", "thin5-c5-A4pos", "thin5-c6-A2")
RUNS, SAMPLE, SEED = 5, 200, 1


def rates(pres, sample):
    """(median multiplies/s, median p-th powers/s, median conjugates/s)
    over RUNS passes."""
    partners = sample[1:] + sample[:1]
    gens = pres.gens()
    conjugators = [gens[k % len(gens)] for k in range(len(sample))]
    mult, powr, conj = [], [], []
    for _ in range(RUNS + 1):
        t0 = time.perf_counter()
        for a, b in zip(sample, partners):
            pres.multiply(a, b)
        t1 = time.perf_counter()
        for a in sample:
            pres.power(a, pres.p)
        t2 = time.perf_counter()
        for a, g in zip(sample, conjugators):
            pres.conjugate(a, g)
        t3 = time.perf_counter()
        mult.append(len(sample) / (t1 - t0))
        powr.append(len(sample) / (t2 - t1))
        conj.append(len(sample) / (t3 - t2))
    # the first pass warms the presentation and is not counted
    return tuple(statistics.median(r[1:]) for r in (mult, powr, conj))


def main():
    print(f"{'group':<16} {'n':>3} {'multiplies/s':>13} {'p-th powers/s':>14}"
          f" {'conjugates/s':>13}")
    for target in GROUPS:
        pres = resolve(target).presentation
        rng = random.Random(SEED)
        sample = [random_element(pres, rng) for _ in range(SAMPLE)]
        mult, powr, conj = rates(pres, sample)
        print(f"{target:<16} {pres.n:>3} {mult:>13.0f} {powr:>14.0f}"
              f" {conj:>13.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
