"""Time to a Beauville verdict on fixed catalog workloads.

    python3 perfbench/run.py --workload p3-census --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the engine is imported from ./src.
One process, one thread.  A round resolves fresh presentations for the
workload's entries (set-up) and then makes one verdict call per entry
(the pass).  Every round starts from new presentation objects, so no
engine cache survives from one round to the next.

--trace 0 repeats rounds until --seconds have been measured (at least
one) and reports the end-to-end metrics: setup_s (import plus the
median set-up), verdict_s (the sum over the entries of each entry's
median verdict call) and peak_rss_mb.  The two times are in reference
seconds: each timed piece is scaled by the host's speed, read from a
fixed kernel run just before and just after it (see Probe).  Each round
is checked as soon as it ends, outside the timed region.  --trace 1 runs
one untraced and one traced round and reports the per-layer metrics, in
plain seconds; the spans go to perfbench/out/trace-<workload>.spans.

Every verdict is checked (see checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

KERNEL_STEPS = 24000       # about 5.5 ms of the reference kernel at full speed
KERNEL_WARMUP = 20
REF_SECONDS = 0.0055       # kernel time that defines the reference speed
RATE_SAMPLE = 200          # elements per group for the collector rates

# shipped 3-groups of order 3^5 and the builtins of order at most 5^3;
# each verdict call takes at most about 1 s
P3_SHIPPED = ("sg-3_5-3", "thin35-n1", "thin35-n2")
P3_BUILTINS = ("elab-3", "elab-5", "elab-7",
               "heisenberg-3", "heisenberg-5", "cpk2-3-2")


@dataclass(frozen=True)
class Workload:
    ids: tuple
    mode: str              # "exhaustive": beauville(); "guided": analyze()


WORKLOADS = {
    "p3-census": Workload(P3_SHIPPED + P3_BUILTINS, "exhaustive"),
    "p5-analyze": Workload(("thin5-c5-A3",), "guided"),
    "p5-a4": Workload(("thin5-c5-A4pos",), "guided"),
}

UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span names whose outermost calls it sums
INCLUSIVE = {
    "catalog.resolve_s": ("catalog.resolve",),
    "structure.is_thin_s": ("structure.is_thin",),
    "structure.center_s": ("structure.center",),
    "structure.lower_central_series_s": ("structure.lower_central_series",),
    "structure.agemo_s": ("structure.agemo",),
    "structure.maximal_exponent_p_s": ("structure.maximal_has_exponent_p",
                                       "structure.exponent_p_maximal_count"),
    "structure.lattice_profile_s": ("structure.lattice_profile",),
    "structure.frattini_quotient_s": ("structure.frattini_quotient",),
    "structure.closure_s": ("structure.generated_subgroup",
                            "structure.normal_closure"),
    "beauville.socle_key_s": ("beauville.socle_key",),
    "beauville.triple_fingerprint_s": ("beauville.triple_fingerprint",),
    "beauville.guided_s": ("beauville.guided_beauville",),
    "beauville.classify_s": ("beauville.classify_theorem_a",),
}
# per-layer metric -> span name whose self time it sums
SELF = {
    "catalog.analyze_self_s": "catalog.analyze",
    "beauville.exhaustive_self_s": "beauville.exhaustive_beauville",
    "beauville.guided_self_s": "beauville.guided_beauville",
}
# per-layer metric -> span names it counts
COUNTS = {
    "structure.closure_calls": ("structure.generated_subgroup",
                                "structure.normal_closure"),
    "beauville.socle_key_calls": ("beauville.socle_key",),
    "beauville.triple_fingerprint_calls": ("beauville.triple_fingerprint",),
    "pcgroup.element_order_calls": ("pcgroup.PcPresentation.element_order",),
}
ELEMENT_SPANS = ("pcgroup.PcPresentation.elements",
                 "structure.Subgroup.elements")
VERIFY_SPAN = "beauville.verify_beauville_structure"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in INCLUSIVE:
        units[name] = "s"
    for name in SELF:
        units[name] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["structure.elements_enumerated"] = "count"
    units["beauville.candidates_tried"] = "count"
    units["beauville.candidates_verified"] = "count"
    units["beauville.candidate_yield"] = "ratio"
    units["pcgroup.multiply_per_s"] = "1/s"
    units["pcgroup.power_p_per_s"] = "1/s"
    for wl in WORKLOADS.values():
        for entry_id in wl.ids:
            units[f"group.{entry_id}.verdict_s"] = "s"
    units["trace.verdict_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ----------------------------------------------------------------------
# rounds

class Probe:
    """Times work against a fixed reference kernel run just before and
    just after it.

    The shared host runs Python at full speed or up to about 40% slower,
    in spells of seconds to minutes, so a raw time says as much about the
    spell as about the code.  The kernel is plain Python that touches
    nothing of the engine, so its time tracks only the host's speed.  A
    piece of work that took t seconds between kernel runs of k1 and k2
    seconds is reported as t * REF_SECONDS / ((k1 + k2) / 2): its time
    at the speed where the kernel takes REF_SECONDS."""

    def __init__(self):
        for _ in range(KERNEL_WARMUP):         # let the interpreter specialise
            kernel()
        self.last = self.kernel_s()

    @staticmethod
    def kernel_s():
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def time(self, fn, *args):
        """(fn's result, seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn(*args)
        took = time.perf_counter() - t0
        after = self.kernel_s()
        ref = took * REF_SECONDS / ((self.last + after) / 2)
        self.last = after
        return result, took, ref


def kernel():
    """The reference kernel: small-int arithmetic, list indexing and dict
    updates, as in the collector.  It allocates no container per step,
    so it does not set off the garbage collector."""
    acc = [0] * 8
    seen = dict.fromkeys(range(97), 0)
    for i in range(KERNEL_STEPS):
        k = (i * 7 + 3) % 97
        seen[k] += i
        j = i & 7
        acc[j] = (acc[j] * 31 + k) % 1000003
    return acc


def import_engine():
    """Import thinville from this checkout's src."""
    if not os.path.isdir(os.path.join(SRC, "thinville")):
        raise ImportError(f"no thinville package under {SRC}")
    sys.path.insert(0, SRC)
    import thinville
    if os.path.dirname(os.path.dirname(thinville.__file__)) != SRC:
        raise ImportError(f"thinville came from {thinville.__file__}")
    return thinville


def verdict(engine, workload, entry):
    if workload.mode == "exhaustive":
        return engine.beauville(entry.presentation, mode="exhaustive")
    return engine.analyze(entry, mode="guided")


def attempt(engine, workload, entry):
    """The verdict, or the exception it raised (a failed operation)."""
    try:
        return verdict(engine, workload, entry)
    except Exception as err:
        return err


@dataclass
class Round:
    entries: list
    results: list          # verdict or report per entry, or the exception
    entry_s: list
    setup_s: float
    verdict_s: float
    entry_ref: list = field(default_factory=list)   # reference seconds
    setup_ref: float = 0.0


def setup(engine, ids):
    return [engine.resolve(entry_id) for entry_id in ids]


def run_round(engine, workload, ids, probe):
    entries, setup_s, setup_ref = probe.time(setup, engine, ids)
    gc.collect()
    rnd = Round(entries, [], [], setup_s, 0.0, [], setup_ref)
    for entry in entries:
        result, took, ref = probe.time(attempt, engine, workload, entry)
        rnd.results.append(result)
        rnd.entry_s.append(took)
        rnd.entry_ref.append(ref)
    rnd.verdict_s = sum(rnd.entry_s)
    return rnd


def tally(checks, workload, rounds, memo=None):
    """(attempted, failed, wrong, notes).  An operation fails when the
    call raises (failed) or returns a verdict the checks reject (failed
    and wrong).  memo carries checked certificates from one call to the
    next (see checks.problems_of)."""
    memo = {} if memo is None else memo
    to_outcome = (checks.outcome_of_verdict if workload.mode == "exhaustive"
                  else checks.outcome_of_report)
    attempted = failed = wrong = 0
    notes = []
    for rnd in rounds:
        for entry, result in zip(rnd.entries, rnd.results):
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                notes.append(f"{entry.id}: raised {result!r}")
                continue
            problems = checks.problems_of(entry, to_outcome(result), memo)
            if problems:
                failed += 1
                wrong += 1
                notes.append(f"{entry.id}: " + "; ".join(problems))
    return attempted, failed, wrong, notes


def collector_rates(engine, entries, rng):
    """Public multiply and power(a, p) calls per second on a seeded
    sample of each group's elements, summed over the groups."""
    mult_s = pow_s = 0.0
    calls = 0
    for entry in entries:
        pres = entry.presentation
        sample = [engine.random_element(pres, rng) for _ in range(RATE_SAMPLE)]
        partners = sample[1:] + sample[:1]
        t0 = time.perf_counter()
        for a, b in zip(sample, partners):
            pres.multiply(a, b)
        t1 = time.perf_counter()
        for a in sample:
            pres.power(a, pres.p)
        t2 = time.perf_counter()
        mult_s += t1 - t0
        pow_s += t2 - t1
        calls += len(sample)
    return calls / mult_s, calls / pow_s


# ----------------------------------------------------------------------
# the two kinds of run

def measure(engine, checks, workload, ids, seconds, probe):
    """End-to-end metrics from untraced rounds, with the tally of their
    operations; times in reference seconds (see Probe).  Each round is
    checked as soon as it ends and then let go, so memory does not grow
    with the number of rounds."""
    setups, calls = [], collections.defaultdict(list)
    raw = []
    totals = [0, 0, 0, []]             # attempted, failed, wrong, notes
    memo = {}
    measured = 0.0
    while not raw or measured < seconds:
        rnd = run_round(engine, workload, ids, probe)
        setups.append(rnd.setup_ref)
        for entry, ref in zip(rnd.entries, rnd.entry_ref):
            calls[entry.id].append(ref)
        raw.append(rnd.verdict_s)
        measured += rnd.setup_s + rnd.verdict_s
        for i, part in enumerate(tally(checks, workload, [rnd], memo)):
            totals[i] += part
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": sum(statistics.median(c) for c in calls.values()),
        "peak_rss_mb": rss_mb,
    }
    print(f"rounds: {len(raw)}  raw pass median: "
          f"{statistics.median(raw):.4g} s  kernel now: "
          f"{probe.last * 1e3:.3g} ms (reference {REF_SECONDS * 1e3:.3g} ms)")
    return totals, metrics


def trace(engine, workload, ids, rng, name, probe):
    """Per-layer metrics, in plain seconds, from one untraced and one
    traced round."""
    plain = run_round(engine, workload, ids, probe)
    tracer = Tracer()
    tracer.install({VERIFY_SPAN: lambda got: int(got[0] is not None)})
    try:
        with tracer.span("bench.round"):
            traced = run_round(engine, workload, ids, probe)
    finally:
        tracer.uninstall()
    multiply_rate, power_rate = collector_rates(engine, traced.entries, rng)

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    dur, self_s = tracer.self_times()
    groups = list(INCLUSIVE.values()) + list(COUNTS.values())
    outer = tracer.outermost(groups)
    for metric, idx in zip(INCLUSIVE, outer):
        metrics[metric] = sum(dur[i] for i in idx)
    for metric, span_name in SELF.items():
        ids_ = tracer.ids_of(span_name)
        metrics[metric] = sum(s for s, nid in zip(self_s, tracer.name)
                              if nid in ids_)
    count_of = collections.Counter(tracer.name)
    for metric, names in COUNTS.items():
        metrics[metric] = sum(count_of.get(nid, 0)
                              for nid in tracer.ids_of(*names))
    element_ids = tracer.ids_of(*ELEMENT_SPANS)
    metrics["structure.elements_enumerated"] = sum(
        t for t, nid in zip(tracer.tag, tracer.name) if nid in element_ids)
    tried, verified = candidates(tracer)
    metrics["beauville.candidates_tried"] = tried
    metrics["beauville.candidates_verified"] = verified
    metrics["beauville.candidate_yield"] = verified / tried if tried else 0.0
    metrics["pcgroup.multiply_per_s"] = multiply_rate
    metrics["pcgroup.power_p_per_s"] = power_rate
    for entry, seconds in zip(plain.entries, plain.entry_s):
        metrics[f"group.{entry.id}.verdict_s"] = seconds
    metrics["trace.verdict_s"] = traced.verdict_s
    metrics["trace.overhead_s"] = traced.verdict_s - plain.verdict_s

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}.spans"))
    return [plain, traced], metrics


def candidates(tracer):
    """(tried, verified): certificate verifications made under a guided
    search, and how many of them returned a certificate."""
    verify = tracer.ids_of(VERIFY_SPAN)
    guided = tracer.ids_of("beauville.guided_beauville")
    tried = verified = 0
    for i, nid in enumerate(tracer.name):
        if nid not in verify:
            continue
        par = tracer.parent[i]
        while par >= 0 and tracer.name[par] not in guided:
            par = tracer.parent[par]
        if par >= 0:
            tried += 1
            verified += tracer.tag[i]
    return tried, verified


# ----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    probe = Probe()
    try:
        engine, _, import_ref = probe.time(import_engine)
    except ImportError as err:
        print(f"perfbench: cannot import the engine: {err}", file=sys.stderr)
        return 2
    import checks

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    ids = list(workload.ids)
    rng.shuffle(ids)
    if args.trace:
        rounds, metrics = trace(engine, workload, ids, rng, args.workload,
                                probe)
        attempted, failed, wrong, notes = tally(checks, workload, rounds)
        units = per_layer_units()
    else:
        totals, metrics = measure(engine, checks, workload, ids, args.seconds,
                                  probe)
        attempted, failed, wrong, notes = totals
        metrics["setup_s"] += import_ref
        units = UNITS
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"attempted: {attempted}  failed: {failed}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
