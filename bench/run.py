"""Benchmark of qtchains: the cold `build`, `verify` and `pathsum` workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 1 --out runs.jsonl

Each repetition runs in a fresh interpreter (bench/child.py) with cold
caches, one at a time, until --seconds have passed.  Every repetition
checks its outputs against reference values (bench/references.json); a
mismatch or a crash fails every operation of that repetition.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the 10th
percentile of the repetitions' wall times and the medians of their set-up
time and peak RSS.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of BENCHMARK.json, plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it
give quartiles, sample counts and provenance.  --out appends the full
record (every per-layer figure, the spans of one traced repetition) as one
JSON line; bench/compare.py compares two such files.

Workloads (the seed picks the sampled pairs of `pathsum`; `build` and
`verify` are fixed by K and only record it):

* build: `qtchains build K --force-search`: the base search, extend_all
  and save_collection.  Flagpole scanning and pair assembly dominate.
* verify: `qtchains verify FILE` on a stored deficit-K collection, built
  once per invocation outside the timed region.  Chain materialization
  dominates; builder state is never used.
* pathsum: load the same file, run opposite_bruteforce on sampled pairs of
  deficit 6..K up to n, then cat_n(m) and the deficit-slice identity for
  k <= 5.  No builder or flagpole code runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from child import SLICE_KS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SIZES = {
    "full": {"K": 16, "pairs": 6, "n": 32, "cat_n": 12},
    "smoke": {"K": 8, "pairs": 2, "n": 10, "cat_n": 8},
}
DEADLINE_S = 170  # a run must end within 180 s
CHILD = BENCH / "child.py"


class BenchError(Exception):
    """The benchmark cannot run here at all."""


# ------------------------------------------------------------------ children

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def call(argv: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """Run a child to completion; None when it had to be killed at the timeout."""
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None


def _probe() -> float:
    """Seconds for a small dict-and-tuple loop, the kind of work qtchains does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(40000):
            key = (i % 61, i % 7)
            seen[key] = seen.get(key, 0) + 1
        best = min(best, time.perf_counter() - t0)
    return best


def quietest_cpu() -> int | None:
    """The allowed CPU that currently runs a probe fastest, or None.

    On a shared host one virtual CPU can run much slower than another for
    seconds at a time; each repetition pins itself to the quieter one.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    times = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _probe()
        os.sched_setaffinity(0, cpus)
    except OSError:  # pinning not permitted: leave placement to the kernel
        return None
    return min(times, key=times.get)


def repetition(cfg: dict, timeout: float) -> dict:
    proc = call([sys.executable, str(CHILD), json.dumps({**cfg, "cpu": quietest_cpu()})], timeout)
    if proc is None:
        return {"errors": [f"repetition killed after {timeout:.0f} s"], "attempted": None}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = {"errors": ["the child printed no result"], "attempted": None}
    if proc.returncode != 0:
        res["errors"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return res


def prepare_input(size: dict, ref: dict, work: Path, deadline: float) -> tuple[str, list[str]]:
    """The stored deficit-K collection that `verify` and `pathsum` read."""
    path = work / f"chains-k{size['K']}.json"
    proc = call(
        [sys.executable, "-m", "qtchains.cli", "build", str(size["K"]), "--out", str(path)],
        deadline - time.monotonic(),
    )
    if proc is None or proc.returncode != 0 or not path.is_file():
        return str(path), ["could not build the input collection"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != ref["input_sha256"]:
        return str(path), [f"input collection digest {digest[:16]} differs from the reference"]
    return str(path), []


# ------------------------------------------------------------------- metrics

# Each end-to-end metric is one statistic of one per-repetition sample.  The
# wall time is gated on its 10th percentile: on a shared host whole stretches
# of repetitions run up to 1.6x slower, and the share of them changes from
# run to run, which moves the median by far more than the program does.
END_TO_END = {
    "wall_p10_s": ("wall_s", "p10"),
    "setup_s": ("setup_s", "median"),
    "peak_rss_mb": ("peak_rss_mb", "median"),
}


def spread(values: list[float]) -> dict:
    """10th percentile, median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        p10 = statistics.quantiles(values, n=10, method="inclusive")[0]  # within the sample's range
    else:
        p10 = q1 = med = q3 = values[0]
    return {"p10": p10, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Every per-layer figure of the traced repetitions.

    Counts come from the first traced repetition (they repeat exactly);
    self times are medians over the traced repetitions.
    """
    first = traced[0]["trace"]
    calls, caches = first["calls"], traced[0]["caches"]
    out: dict[str, float] = {}
    for mod, attr, kind in tracing.TARGETS:
        name = f"{mod}.{attr.split('.')[-1]}"
        out[f"{name}.calls"] = calls.get(name, 0)
        if kind != "count":
            out[f"{name}.self_s"] = statistics.median(
                r["trace"]["self_s"].get(name, 0.0) for r in traced
            )
    for name, c in caches.items():
        out[f"{name}.hits"] = c["hits"]
        out[f"{name}.misses"] = c["misses"]
        out[f"{name}.currsize"] = c["currsize"]
        out[f"{name}.hit_ratio"] = _ratio(c["hits"], c["hits"] + c["misses"])
    out["verify.elements_upto.items"] = first["elements_items"]
    out["verify.elements_per_unique"] = _ratio(first["elements_items"], first["elements_distinct"])
    out["flagpole.pairs_per_test"] = _ratio(
        calls.get("builder.build_flagpole_pair", 0), calls.get("flagpole.is_flagpole", 0)
    )
    out["trace.spans"] = len(first["spans"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    return out


def provenance(args: argparse.Namespace, size: dict, sample_counts: dict) -> dict:
    src = ROOT / "src" / "qtchains"
    h = hashlib.sha256()
    for f in sorted(src.rglob("*")):
        if f.is_file() and f.suffix in (".py", ".json"):
            h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    if shutil.which("git"):
        top = call(["git", "rev-parse", "--show-toplevel", "HEAD"], 10)
        lines = top.stdout.split() if top and top.returncode == 0 else []
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": {"name": args.size, **size},
        "sample_counts": sample_counts,
    }


# ---------------------------------------------------------------------- main

def measure(args: argparse.Namespace, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    size = SIZES[args.size]
    ref = json.loads((BENCH / "references.json").read_text())[args.size]
    cfg = {"workload": args.workload, "seed": args.seed, "ref": ref, **size}

    input_errors: list[str] = []
    if args.workload in ("verify", "pathsum"):
        cfg["in_path"], input_errors = prepare_input(size, ref, work, deadline)

    # with --trace 1 the repetitions alternate untraced, traced, untraced, ...
    reps: list[tuple[bool, dict]] = []
    t0 = time.monotonic()
    longest = 0.0
    while len(reps) < 1 + args.trace or time.monotonic() - t0 < args.seconds:
        if reps and time.monotonic() + longest > deadline:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        cfg["trace"] = traced
        cfg["out_path"] = str(work / f"out-{len(reps)}.json")
        r0 = time.monotonic()
        res = repetition(cfg, deadline - r0)
        longest = max(longest, time.monotonic() - r0)
        res["errors"] = input_errors + res["errors"]
        reps.append((traced, res))
        Path(cfg["out_path"]).unlink(missing_ok=True)

    expected = {
        "build": ref["pairs"],
        "verify": ref["verify_rows"],
        "pathsum": size["pairs"] * size["n"] + len(SLICE_KS),
    }[args.workload]
    attempted = failed = 0
    errors: list[str] = []
    for _, res in reps:
        n = res.get("attempted") or expected
        attempted += n
        if res["errors"]:
            failed += n
            errors.extend(res["errors"])

    # failed repetitions give no timings, unless none passed (the result then says correct: false)
    timed = [(t, res) for t, res in reps if "wall_s" in res]
    timed = [(t, res) for t, res in timed if not res["errors"]] or timed
    plain = [res for t, res in timed if not t]
    traced = [res for t, res in timed if t and "trace" in res]
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if not samples["wall_s"] or (args.trace and not traced):
        raise BenchError("no repetition produced timings:\n" + "\n".join(errors[:3]))
    summary = {name: spread(vals) for name, vals in samples.items()}
    record = {
        "provenance": provenance(args, size, {k: len(v) for k, v in samples.items()}),
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors[:5],
        "summary": summary,
        "values": {name: summary[sample][stat] for name, (sample, stat) in END_TO_END.items()},
        "samples": samples,
        "caches": plain[0]["caches"],
    }
    if args.trace:
        record["layers"] = layer_metrics(traced, samples["wall_s"])
        record["trace_samples"] = len(traced)
        record["counters_repeat"] = all(
            r["trace"]["calls"] == traced[0]["trace"]["calls"] and r["caches"] == traced[0]["caches"]
            for r in traced
        )
        record["spans"] = traced[0]["trace"]["spans"]
    return record


def result_line(record: dict, spec: dict) -> dict:
    if record["trace"]:
        wanted = spec["per_layer"]
        values = record["layers"]
    else:
        wanted = spec["end_to_end"]
        values = record["values"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def print_report(record: dict) -> None:
    prov = record["provenance"]
    print(
        f"# {prov['workload']} seed={prov['seed']} size={prov['size']} python={prov['python']}"
        f" nproc={prov['nproc']} commit={prov['commit']} source={prov['source_sha256'][:12]}"
    )
    for name, s in record["summary"].items():
        print(f"  {name:<12} p10 {s['p10']:.6g}  q1 {s['q1']:.6g}  median {s['median']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  error_rate   {record['error_rate']:.6g}  ({record['failed']}/{record['attempted']} operations failed)")
    for err in record["errors"][:3]:
        print(f"  error: {err.strip().splitlines()[-1]}")
    if record["trace"]:
        print(f"  traced repetitions {record['trace_samples']}, counters repeat: {record['counters_repeat']}")
        for name, value in sorted(record["layers"].items()):
            if value:
                print(f"  {name:<40} {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("build", "verify", "pathsum"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full", help="input sizes (smoke: a tiny self-test)")
    ap.add_argument("--out", type=Path, default=None, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "qtchains" / "__init__.py").is_file():
        print(f"no qtchains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print_report(record)
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
