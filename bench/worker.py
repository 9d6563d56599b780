"""One measured workload process: settle every scheme of the workload in
whole passes for about the run length, check every trace, and print
one JSON line of raw results for run.py.

One operation settles one scheme: prove it, then serialise its traces to
canonical JSON (`to_json_dict`, then `json.dumps` with default separators).
The plain mode calls `prove_theorem1(schemes=[s])`.  The traced mode makes
the same calls that `prove_theorem1` makes for one scheme
(`no_jump_candidates`, `jump_candidates`, `eliminate` per candidate),
records a span around each, and writes the spans and the trace JSON of
the first pass to bench/out/ when it ends.  The traced mode settles every
scheme plainly as well, right before or after the traced settle, for the
tracing overhead.  A call of calibrate.kernel before the first settle of a
pass and after every settle gives the run's interpreter speed, and so the
plain settles their times at the reference speed, which wall_s and
scheme_geomean_ms report; the measured times are reported beside them.

    python3 bench/worker.py --workload theorem1 --seed 1 --seconds 10 [--traced]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

import calibrate
import checks
import workloads
from nestprohibitor import (
    eliminate,
    jump_candidates,
    no_jump_candidates,
    prove_theorem1,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class PassJSON:
    """The flat JSON list of every trace of a pass, fed one scheme's
    `json.dumps(list)` at a time: its SHA-256 equals that of the whole
    list, and `sink`, if given, receives the list itself."""

    def __init__(self, sink=None):
        self._h = hashlib.sha256()
        self._sink = sink
        self._sep = "["

    def _put(self, part: str) -> None:
        self._h.update(part.encode())
        if self._sink is not None:
            self._sink.write(part)

    def add(self, text: str) -> None:
        body = text[1:-1]
        if body:
            self._put(self._sep)
            self._put(body)
            self._sep = ", "

    def close(self) -> str:
        if self._sep == "[":
            self._put("[")
        self._put("]")
        return self._h.hexdigest()


def settle(scheme):
    """The measured operation of the plain run."""
    report = prove_theorem1(schemes=[scheme])
    (result,) = report.results
    dicts = [t.to_json_dict() for t in result.traces]
    return result.excluded, dicts, json.dumps(dicts)


class Tracer:
    """Spans kept in memory: (id, parent id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple] = []

    def add(self, parent, name, start, end) -> int:
        self.spans.append((len(self.spans), parent, name, start, end))
        return len(self.spans) - 1


def settle_traced(scheme, tracer: Tracer, totals: dict, elim_ns: list):
    """The operation of the traced run, split at the engine's public calls."""
    clock = time.perf_counter_ns
    t0 = clock()
    candidates = no_jump_candidates(scheme) + jump_candidates(scheme)
    t1 = clock()
    traces, starts = [], []
    for candidate in candidates:
        starts.append(clock())
        traces.append(eliminate(candidate, scheme))
    t2 = clock()
    dicts = [t.to_json_dict() for t in traces]
    text = json.dumps(dicts)
    t3 = clock()
    root = tracer.add(None, "settle", t0, t3)
    tracer.add(root, "engine.enumerate", t0, t1)
    for start, end in zip(starts, starts[1:] + [t2]):
        tracer.add(root, "engine.eliminate", start, end)
        elim_ns.append(end - start)
    tracer.add(root, "engine.emit", t2, t3)
    totals["enumerate"] += t1 - t0
    totals["eliminate"] += t2 - t1
    totals["emit"] += t3 - t2
    excluded = all(t.outcome == "eliminated" for t in traces)
    return excluded, dicts, text


def counters(dicts: list[dict], counts: Counter) -> None:
    """Work counters read from the traces of one scheme."""
    counts["engine.candidates"] += len(dicts)
    for t in dicts:
        if t["stageClosures"]:
            counts["engine.stage_closed"] += 1
        counts["engine.branches"] += len(t["branches"])
        if t["witness"] is not None:
            counts["engine.witnesses"] += 1
        for c in t["stageClosures"]:
            counts[f"rules.closures.{c['rule']}"] += c["count"]
        for b in t["branches"]:
            counts["engine.assignments_checked"] += b["solutionsChecked"]
            for c in b["closures"]:
                counts[f"rules.closures.{c['rule']}"] += c["count"]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.mean(math.log(x) for x in values))


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Whole passes over the workload for about `seconds`.  With
    `traced`, each scheme is settled both plainly and traced, in an order
    that alternates by pass, so that the two timings see the same machine
    state.  The tracing overhead is the median over passes of each pass's
    traced time minus its plain time: one slow window then moves only the
    pass it falls in."""
    schemes = workloads.build(workload, seed)
    modes = ("plain", "traced") if traced else ("plain",)
    tracer = Tracer()
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
    times = {mode: {str(s): [] for s in schemes} for mode in modes}
    # Kernel times (calibrate.py) taken through the run, for the run's
    # interpreter speed: their median.  On a busy host a single call, and
    # even the median of one pass's calls, varies by a sixth or more while
    # the settles beside it hold steady.
    calibrate.warm_up()
    kernel_times = []
    digests, errors, layer, overheads = [], [], [], []
    counts: Counter = Counter()
    attempted = failed = passes = 0
    begin = time.perf_counter()
    while True:
        first = passes == 0
        dump = None
        if traced and first:
            dump = open(os.path.join(OUT_DIR, f"traces-{workload}-{seed}.json"), "w")
        digest = {mode: PassJSON(dump if mode == "traced" else None) for mode in modes}
        excluded = []
        totals = Counter()
        elim_ns: list[int] = []
        trace_bytes = 0
        pass_s = Counter()
        order = modes if passes % 2 == 0 else modes[::-1]
        kernel_times.append(calibrate.kernel_s())
        for scheme in schemes:
            for mode in order:
                attempted += 1
                start = time.perf_counter()
                try:
                    if mode == "traced":
                        ok, dicts, text = settle_traced(scheme, tracer, totals, elim_ns)
                    else:
                        ok, dicts, text = settle(scheme)
                except Exception as err:  # counted, reported and the run goes on
                    failed += 1
                    errors.append(f"{scheme}: {type(err).__name__}: {err}")
                    continue
                took = time.perf_counter() - start
                kernel_times.append(calibrate.kernel_s())
                times[mode][str(scheme)].append(took)
                pass_s[mode] += took
                digest[mode].add(text)
                if ok != all(t["outcome"] == "eliminated" for t in dicts):
                    errors.append(f"{scheme}: excluded flag disagrees with the traces")
                if first:
                    errors.extend(checks.scheme_errors(scheme, dicts))
                if mode == "plain":
                    trace_bytes += len(text)
                    if ok:
                        excluded.append(scheme)
                    if first:
                        counters(dicts, counts)
                # Drop this scheme's traces before the next operation, so
                # that the peak memory is that of one operation.
                del dicts, text
        if workload == "theorem1" and first:
            errors.extend(checks.theorem1_errors(excluded))
        digests.extend(digest[mode].close() for mode in modes)
        if dump is not None:
            dump.close()
        if traced:
            overheads.append(pass_s["traced"] - pass_s["plain"])
            cuts = statistics.quantiles(elim_ns, n=100)
            layer.append(
                {
                    "enumerate_s": totals["enumerate"] / 1e9,
                    "eliminate_s": totals["eliminate"] / 1e9,
                    "emit_s": totals["emit"] / 1e9,
                    "eliminate_p50_us": cuts[49] / 1e3,
                    "eliminate_p99_us": cuts[98] / 1e3,
                    "trace_mb": trace_bytes / 1e6,
                }
            )
        # Another pass only if it would end nearer to `seconds` than this one.
        passes += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    if len(set(digests)) != 1:
        errors.append(f"passes produced different traces: {sorted(set(digests))}")
    per_scheme = {
        mode: [statistics.median(v) for v in t.values() if v] for mode, t in times.items()
    }
    ref_per_scheme = [calibrate.reference_s(t, kernel_times) for t in per_scheme["plain"]]
    result = {
        "schemes": [str(s) for s in schemes],
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "error_count": len(errors),
        "sha256": digests[0],
        "wall_s": sum(ref_per_scheme),
        # The geometric mean weighs every scheme alike and, unlike a median
        # over 8 schemes, does not fall on the gap between two of them.
        "scheme_geomean_ms": geomean(ref_per_scheme) * 1e3,
        "measured_wall_s": sum(per_scheme["plain"]),
        "measured_scheme_geomean_ms": geomean(per_scheme["plain"]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": dict(sorted(counts.items())),
        "times_s": times,
        "kernel_s": kernel_times,
    }
    if traced:
        result["traced_wall_s"] = sum(per_scheme["traced"])
        result["overhead_s"] = statistics.median(overheads)
        result["layer"] = {
            k: statistics.median(p[k] for p in layer) for k in layer[0]
        }
        with open(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": tracer.spans}, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
