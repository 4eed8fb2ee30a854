"""One benchmark worker: a fresh process that imports stackcheck from the
checkout's `src/`, times its set-up, then (unless --setup-only) analyses one
workload's listings in passes until --seconds have passed, checks every
report against its known answer, and prints one JSON object on stdout.

run.py starts it; running it by hand is only useful for debugging:

    python3 perfbench/worker.py --root . --work .perfbench --workload chain --seed 1 --seconds 5
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

# Only modules that stackcheck imports anyway load before set-up ends, so
# set-up time is what a fresh stackcheck process pays after interpreter start.
import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import generate  # noqa: E402

SETUP_SAMPLES = 16          # fresh set-ups timed per untraced run
# Sizes keep every analysis under about 0.3 s: the host's speed varies in
# spells, and only short analyses repeated many times give a steady best
# time (see README.md).
CHAIN_SIZES = (5, 10, 20)
CHAIN_POOL = 3               # listings per size, one per profile
FANOUT_SHAPE = (4, 6)
FANOUT_POOL = 4              # two clean, two planted


def set_up(root: Path) -> float:
    """Import stackcheck from `root/src` and load every bundled data file;
    return the seconds since this process started running Python code."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import stackcheck
    if Path(stackcheck.__file__).resolve().parent != src / "stackcheck":
        raise SystemExit(f"stackcheck imported from {stackcheck.__file__}, not {src}")
    from stackcheck import checker, cli, effects, ltl, patcher  # noqa: F401
    from stackcheck.memstace import Config
    [ltl.compile_monitor(p) for p in ltl.load_bundled_properties()]
    patcher.load_templates()
    effects.load_libc_db()
    checker.load_cwe_map()
    elapsed = time.perf_counter() - _T0
    if Config().max_states != generate.MAX_STATES:
        raise SystemExit("generate.MAX_STATES differs from stackcheck's default max_states")
    return elapsed


# --- workloads -------------------------------------------------------------------
#
# A workload is a list of (path, size label, known answer). The run repeats
# passes over the list, so each listing's repeats spread over the whole run.

def corpus_listings(root: Path, seed: int, work: Path):
    corpus = root / "src" / "stackcheck" / "corpus"
    truth = json.loads((corpus / "ground_truth.json").read_text(encoding="utf-8"))
    names = sorted(truth)
    random.Random(seed).shuffle(names)
    return [(str(corpus / f"{name}.s"), "corpus", truth[name]) for name in names]


def chain_listings(root: Path, seed: int, work: Path):
    items = []
    for i in range(CHAIN_POOL):
        for n in CHAIN_SIZES:
            text, answer = generate.chain(n, seed, i)
            path = work / f"chain_n{n}_{i}.s"
            path.write_text(text, encoding="utf-8")
            items.append((str(path), f"n{n}", answer))
    return items


def fanout_listings(root: Path, seed: int, work: Path):
    f, d = FANOUT_SHAPE
    items = []
    for i in range(FANOUT_POOL):
        text, answer = generate.fanout(f, d, seed, i)
        path = work / f"fanout_{f}x{d}_{i}.s"
        path.write_text(text, encoding="utf-8")
        items.append((str(path), f"{f}x{d}", answer))
    return items


WORKLOADS = {"corpus": corpus_listings, "chain": chain_listings,
             "fanout": fanout_listings}
ANALYZE_FLAGS = {"corpus": {"patch": True, "validate": True}}


# --- the correctness gate ---------------------------------------------------------

def judge(report, answer: dict, flags: dict) -> str | None:
    """Why `report` disagrees with the known answer, or None.

    `answer` holds `vulnerable` and `violated`, read straight from
    ground_truth.json or made by the generator; cli.report_metrics is not
    used because it treats each ground-truth record as truthy. Generated
    answers also fix the status, so a truncated (inconclusive) clean
    listing fails. ground_truth.json records no status, and one clean corpus
    listing (strcpy_runtime_ok) is inconclusive, not clean.
    """
    if report.status == "error":
        return f"error: {report.error}"
    if report.vulnerable != answer["vulnerable"]:
        return f"vulnerable={report.vulnerable}, expected {answer['vulnerable']}"
    if "status" in answer and report.status != answer["status"]:
        return f"status {report.status}, expected {answer['status']}"
    violated = sorted(p.name for p in report.properties if p.status == "violated")
    if violated != sorted(answer["violated"]):
        return f"violated {violated}, expected {sorted(answer['violated'])}"
    if flags.get("validate") and answer["vulnerable"] and answer.get("patchable"):
        if not report.validations:
            return "no validation where one was expected"
        if not all(v["success"] for v in report.validations):
            return "a validation failed"
    return None


def canonical(report) -> str:
    doc = report.to_json()
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def fresh_setup(args) -> float:
    """Set-up time of a fresh worker process, started and awaited here."""
    import subprocess
    proc = subprocess.run([sys.executable, __file__, "--root", args.root,
                           "--work", args.work, "--setup-only"],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)["setup_s"]


def run_workload(args, cli, Config, setup_s: float) -> dict:
    import resource
    import tempfile
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    flags = ANALYZE_FLAGS.get(args.workload, {})
    cfg = Config()
    first: dict[str, str] = {}
    samples: list[tuple[str, str, bool, float]] = []
    failures: list[str] = []
    # set-up is timed in fresh processes spread over the run, between
    # listings, so that slow and fast spells of the host average out
    setups = [setup_s]
    patches = validated = 0
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        listings = WORKLOADS[args.workload](Path(args.root), args.seed, Path(tmp))
        # every listing runs at least once, and when tracing at least once
        # traced and once untraced; after that the run stops at the deadline
        min_passes = 2 if tracer else 1
        start = time.perf_counter()
        passes = 0

        def time_up() -> bool:
            return passes >= min_passes and time.perf_counter() - start >= args.seconds

        while not time_up():
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            for path, label, answer in listings:
                if time_up():
                    break
                if not tracer and len(setups) < SETUP_SAMPLES and \
                        time.perf_counter() - start >= len(setups) * args.seconds / SETUP_SAMPLES:
                    setups.append(fresh_setup(args))
                if traced:
                    tracer.listing = Path(path).stem
                t = time.perf_counter()
                try:
                    report = cli.analyze([path], cfg, **flags)[0]
                except Exception as exc:  # a raising listing is a failed listing
                    report, why = None, f"raised {exc!r}"
                samples.append((path, label, traced, time.perf_counter() - t))
                if report is not None:
                    why = judge(report, answer, flags)
                    text = canonical(report)
                    if first.setdefault(path, text) != text:
                        why = why or "report differs from the first pass"
                    patches += len(report.patches)
                    validated += sum(v["success"] for v in report.validations)
                if why:
                    failures.append(f"{Path(path).stem}: {why}")
            if traced:
                tracer.uninstall()
            passes += 1
        while not tracer and len(setups) < SETUP_SAMPLES:
            setups.append(fresh_setup(args))
    out = {
        "setups": setups,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:20],
        "samples": samples,
        "patches": patches,
        "validated": validated,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(sum(on for _, _, on, _ in samples))
        out["missing_hooks"] = tracer.missing
        tracer.dump(Path(args.work) / f"spans-{args.workload}-{args.seed}.jsonl")
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    setup_s = set_up(Path(args.root))
    if args.setup_only:
        out = {"setup_s": setup_s}
    else:
        from stackcheck import cli
        from stackcheck.memstace import Config
        out = run_workload(args, cli, Config, setup_s)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
