"""Benchmark of the proof engine: one command, every metric by name.

    python3 bench/run.py --workload theorem1|lowbeta|highbeta --seed N \\
        --seconds S --trace 0|1

Each part runs in a fresh single-threaded interpreter with
NEST_PROHIBITOR_THREADS unset and the package taken from src/ beside this
directory.  With --trace 0 the run times set-up over several fresh
interpreters (probe.py) around one workload process (worker.py), and
reports the end-to-end metrics; their times are given at the reference
speed of calibrate.py, which cancels the drift of a shared host.  With --trace 1 it times the imports
module by module with `-X importtime`, runs one traced workload process,
and reports the per-layer metrics and the tracing overhead.
Every run checks every trace; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The exit
code is 0 only when every check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH, "out")

PROBES = 8  # fresh interpreters per probe call
CHILD_TIMEOUT_S = 150
IMPORTED_MODULES = ("schemes", "orevkov", "rules", "engine")
CITED_RULES = (
    "empty_triangles",
    "jump",
    "lambda0_bound",
    "lemma10",
    "separating",
    "triangle_bound",
)
COUNTERS = (
    "engine.candidates",
    "engine.stage_closed",
    "engine.branches",
    "engine.assignments_checked",
    "engine.witnesses",
) + tuple(f"rules.closures.{r}" for r in CITED_RULES)
REFERENCE_ROW = re.compile(r"^\|\s*(\w+)\s*\|\s*(\*|\d+)\s*\|\s*`?([0-9a-f]{64})`?\s*\|")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NEST_PROHIBITOR_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args[0]} exited with {proc.returncode}")
    return proc


def probe(workload: str, seed: int, env: dict, importtime: bool) -> list[dict]:
    """Set-up figures of PROBES fresh interpreters."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [*flags, os.path.join(BENCH, "probe.py"), workload, str(seed)]
    samples = []
    for _ in range(PROBES):
        proc = run_child(cmd, env)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("nestprohibitor."):
                module = parts[2].strip().split(".", 1)[1]
                sample[f"{module}.import_ms"] = int(parts[0].split(":")[1]) / 1e3
        samples.append(sample)
    return samples


def work(workload: str, seed: int, seconds: float, env: dict, traced: bool) -> dict:
    cmd = [os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    proc = run_child(cmd, env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_hash(workload: str, seed: int):
    """The reference SHA-256 stored in the README table, if any."""
    with open(os.path.join(BENCH, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            m = REFERENCE_ROW.match(line)
            if m and m.group(1) == workload and m.group(2) in ("*", str(seed)):
                return m.group(3)
    return None


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Proof-engine benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("theorem1", "lowbeta", "highbeta"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nestprohibitor", "__init__.py")):
        print(f"error: no package at {SRC}/nestprohibitor", file=sys.stderr)
        return 2
    env = child_env()

    # One warm-up leaves the byte-code caches written.  Half the probes run
    # before the workload process and half after it, so that set-up is
    # sampled at both ends of the run.
    importtime = bool(args.trace)
    run_child([os.path.join(BENCH, "probe.py"), args.workload, str(args.seed)], env)
    samples = probe(args.workload, args.seed, env, importtime)
    out = work(args.workload, args.seed, args.seconds, env, traced=bool(args.trace))
    samples += probe(args.workload, args.seed, env, importtime)
    if args.trace:
        layer = out["layer"]
        counters = out["counters"]
        checked = counters.get("engine.assignments_checked", 0)
        metrics = {
            **{f"{m}.import_ms": (median_of(samples, f"{m}.import_ms"), "ms")
               for m in IMPORTED_MODULES},
            "schemes.build_ms": (median_of(samples, "build_ms"), "ms"),
            "engine.enumerate_s": (layer["enumerate_s"], "s"),
            "engine.eliminate_s": (layer["eliminate_s"], "s"),
            "engine.eliminate_p50_us": (layer["eliminate_p50_us"], "us"),
            "engine.eliminate_p99_us": (layer["eliminate_p99_us"], "us"),
            "engine.us_per_assignment": (
                layer["eliminate_s"] * 1e6 / checked if checked else 0.0, "us"),
            "engine.emit_s": (layer["emit_s"], "s"),
            "engine.trace_mb": (layer["trace_mb"], "MB"),
            **{name: (counters.get(name, 0), "count") for name in COUNTERS},
            "trace.wall_s": (out["traced_wall_s"], "s"),
            "trace.overhead_s": (out["overhead_s"], "s"),
        }
    else:
        metrics = {
            "setup_s": (median_of(samples, "setup_s"), "s"),
            "wall_s": (out["wall_s"], "s"),
            "scheme_geomean_ms": (out["scheme_geomean_ms"], "ms"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }

    reference = reference_hash(args.workload, args.seed)
    match = "n/a" if reference is None else out["sha256"] == reference
    print(f"workload {args.workload} seed {args.seed}: {len(out['schemes'])} "
          f"schemes, {out['passes']} passes")
    print(f"sha256 {out['sha256']} reference {reference or 'none for this seed'} "
          f"match {match}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"as measured, not at the reference speed: setup_s = "
              f"{median_of(samples, 'measured_setup_s'):.6g} s, wall_s = "
              f"{out['measured_wall_s']:.6g} s, scheme_geomean_ms = "
              f"{out['measured_scheme_geomean_ms']:.6g} ms")
    for e in out["errors"]:
        print(f"CHECK FAILED: {e}")
    correct = out["error_count"] == 0
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({**result, "worker": out}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
