"""The stackcheck benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It runs the workload in one worker
process, which also times stackcheck's set-up in fresh processes that it
starts one at a time between listings. It prints every metric by name with
its unit and sample count, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a run whose passes alternate untraced and traced.
See perfbench/README.md for the workloads and what each metric means.
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
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench"


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), "--root", str(ROOT),
                           "--work", str(WORK), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_times(samples, traced: bool) -> dict[str, tuple[str, float]]:
    """Each listing's fastest analysis: {path: (size label, seconds)}."""
    best: dict[str, tuple[str, float]] = {}
    for path, label, on, dt in samples:
        if on == traced and dt < best.get(path, (label, float("inf")))[1]:
            best[path] = (label, dt)
    return best


def throughput(best) -> float:
    """Listings per second for one pass over the workload's listings."""
    return len(best) / sum(dt for _, dt in best.values())


def end_to_end(args, result: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the diagnostic lines printed with them."""
    samples = result["samples"]
    best = best_times(samples, traced=False)
    reps = len(samples) / len(best)
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s", len(result["setups"])),
        "listings_per_s": (throughput(best), "listings/s", len(samples)),
        "listing_p50_s": (statistics.median([dt for _, dt in best.values()]), "s", len(best)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    times = [dt for *_, dt in samples]
    notes = [f"{len(best)} distinct listings, {reps:.1f} analyses each on average; "
             f"times are each listing's best",
             f"failed_share {result['failed'] / result['attempted']:.6g} "
             f"({result['failed']} of {result['attempted']} analyses)",
             f"all-samples median {statistics.median(times):.6g} s (n={len(times)})"]
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        notes.append(f"all-samples p90 {p90:.6g} s (n={len(times)})")
    if result["patches"]:
        notes.append(f"validated_share {result['validated'] / result['patches']:.6g} "
                     f"({result['validated']} of {result['patches']} patches)")
    if args.workload == "chain":
        by_size: dict[int, list[float]] = {}
        for label, dt in best.values():
            by_size.setdefault(int(label[1:]), []).append(dt)
        sizes = sorted(by_size)
        for n in sizes:
            notes.append(f"chain.n{n}_p50_s {statistics.median(by_size[n]):.6g} s "
                         f"(n={len(by_size[n])} listings)")
        steps = [f"{statistics.median(by_size[b]) / statistics.median(by_size[a]):.3g}"
                 for a, b in zip(sizes, sizes[1:])]
        notes.append(f"chain.growth_per_doubling {steps[-1]} for n={sizes[-2]}..{sizes[-1]}, "
                     f"steps {' '.join(steps)} (diagnostic, not a gate)")
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    traced = throughput(best_times(result["samples"], traced=True))
    plain = throughput(best_times(result["samples"], traced=False))
    listings = sum(on for _, _, on, _ in result["samples"])
    metrics = {name: (value, unit, listings)
               for name, (value, unit) in result["layers"].items()}
    metrics["trace.overhead_listings_per_s"] = (traced - plain, "listings/s",
                                                len(result["samples"]))
    notes = [f"traced {traced:.6g} listings/s, untraced {plain:.6g} listings/s"]
    if result["missing_hooks"]:
        notes.append(f"hooks not found, their metrics read 0: {result['missing_hooks']}")
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one stackcheck benchmark workload.")
    ap.add_argument("--workload", required=True, choices=["corpus", "chain", "fanout"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "stackcheck" / "__init__.py").is_file():
        print(f"no stackcheck sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    result = _worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     timeout=min(args.seconds + 100, 170))
    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(args, result)
    for name, (value, unit, count) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:12s} n={count}")
    for line in notes + [f"FAILED {f}" for f in result["failures"]]:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
