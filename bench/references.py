"""Print the reference-hash rows of bench/README.md: the SHA-256 of the
canonical trace JSON of one checked pass per workload and seed.

    PYTHONPATH=src python3 bench/references.py

`theorem1` does not depend on the seed and gets one row with seed `*`.
"""

import worker
import workloads

SEEDS = range(1, 21)  # the seeds of the two sets of runs in the README


def main() -> None:
    for workload in workloads.WORKLOADS:
        seeds = ["*"] if workload == "theorem1" else SEEDS
        for seed in seeds:
            result = worker.run(workload, 0 if seed == "*" else seed, 0, False)
            if result["error_count"]:
                raise SystemExit(f"{workload} seed {seed}: {result['errors']}")
            print(f"| {workload} | {seed} | `{result['sha256']}` |", flush=True)


if __name__ == "__main__":
    main()
