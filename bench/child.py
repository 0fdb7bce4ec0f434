"""One benchmark repetition, in a fresh interpreter with cold caches.

Usage: python3 child.py CONFIG_JSON  (run.py starts it with src/ on PYTHONPATH)

Prints one JSON object: set-up and wall time, peak RSS, the operations
attempted and failed, the errors that failed them, the cache statistics
and, when traced, the tracer's summary.  Output checks run after the
timed region and never count towards a timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

SLICE_KS = range(6)  # deficits whose slices of cat_n are fully covered by stored chains


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------- workloads
# Each run_* is the timed region and returns what the matching check_* needs.
# Each check_* returns (operations attempted, errors).

def run_build(cfg: dict):
    from qtchains import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["build", str(cfg["K"]), "--force-search", "--out", cfg["out_path"]])
    return rc


def check_build(cfg: dict, ref: dict, rc) -> tuple[int, list[str]]:
    errors = []
    attempted = ref["pairs"]
    if rc != 0:
        errors.append(f"build exited {rc}")
    try:
        payload = json.loads(Path(cfg["out_path"]).read_text())
    except (OSError, ValueError) as exc:
        return attempted, errors + [f"cannot read the built collection: {exc}"]
    records = payload.get("chains", [])
    if records:
        attempted = (len(records) + sum(r["mu"] == r["partner"] for r in records)) // 2
    if len(records) != ref["chains"]:
        errors.append(f"built {len(records)} chains, expected {ref['chains']}")
    if payload_digest(payload) != ref["payload_sha256"]:
        errors.append("collection payload digest differs from the reference")
    return attempted, errors


def run_verify(cfg: dict):
    from qtchains import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["verify", cfg["in_path"]])
    return rc, out.getvalue()


def check_verify(cfg: dict, ref: dict, state) -> tuple[int, list[str]]:
    rc, text = state
    lines = text.strip().splitlines()
    last = lines[-1] if lines else ""
    errors = []
    try:
        passed, total = (int(x) for x in last.split()[0].split("/"))
    except (IndexError, ValueError):
        return ref["verify_rows"], [f"unreadable verify summary {last!r}"]
    if rc != 0 or passed != total:
        errors.append(f"verify exited {rc} with {passed}/{total} rows ok")
    if total != ref["verify_rows"]:
        errors.append(f"verify produced {total} rows, expected {ref['verify_rows']}")
    return total, errors


def run_pathsum(cfg: dict):
    from qtchains import builder, poly, verify

    coll = builder.load_collection(cfg["in_path"])
    pool = [(mu, star) for mu, star in coll.pairs() if 6 <= sum(mu) <= cfg["K"]]
    picks = sorted(random.Random(cfg["seed"]).sample(range(len(pool)), cfg["pairs"]))
    rows = []
    for i in picks:
        mu, star = pool[i]
        rows.extend(verify.opposite_bruteforce(coll.chains[mu], coll.chains[star], cfg["n"]))
    m = cfg["cat_n"]
    full = poly.cat_n(m)
    slices = []
    for k in SLICE_KS:
        total = poly.QtPolynomial()
        for mu in coll.members():
            if sum(mu) == k:
                total = total + verify.cat_n_mu(m, coll.chains[mu])
        slices.append((k, poly.deficit_slice(full, m, k) == total))
    return len(pool), rows, slices


def check_pathsum(cfg: dict, ref: dict, state) -> tuple[int, list[str]]:
    pool, rows, slices = state
    errors = []
    if pool != ref["pathsum_pool"]:
        errors.append(f"{pool} pairs of deficit 6..K, expected {ref['pathsum_pool']}")
    want_rows = cfg["pairs"] * cfg["n"]
    if len(rows) != want_rows:
        errors.append(f"{len(rows)} opposite rows, expected {want_rows}")
    bad = [r for r in rows if not r.ok or not r.clause.startswith("opposite-n")]
    if bad:
        errors.append(f"{len(bad)} opposite rows fail, first {bad[0].clause} {bad[0].witness}")
    wrong = [k for k, ok in slices if not ok]
    if wrong:
        errors.append(f"deficit slices of cat_n({cfg['cat_n']}) differ from the chain sums at k={wrong}")
    return want_rows + len(SLICE_KS), errors


WORKLOADS = {
    "build": (run_build, check_build),
    "verify": (run_verify, check_verify),
    "pathsum": (run_pathsum, check_pathsum),
}


# ---------------------------------------------------------------------- main

def main() -> None:
    cfg = json.loads(sys.argv[1])
    if cfg.get("cpu") is not None:
        os.sched_setaffinity(0, {cfg["cpu"]})
    ref = cfg["ref"]
    run, check = WORKLOADS[cfg["workload"]]
    result: dict = {"errors": []}

    t0 = time.perf_counter()
    from qtchains import builder, cli  # noqa: F401  (cli: what a command-line call imports)

    builder.seed_base_collection()
    result["setup_s"] = time.perf_counter() - t0

    caches = tracing.cache_functions()
    warm = {name: c["currsize"] for name, c in tracing.cache_stats(caches).items() if c["currsize"]}
    if warm:
        result["errors"].append(f"caches not cold before timed work: {warm}")
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    state = None
    t1 = time.perf_counter()
    try:
        state = run(cfg)
    except Exception:  # a crash fails every operation of the repetition
        result["errors"].append(traceback.format_exc(limit=4))
    result["wall_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["caches"] = tracing.cache_stats(caches)

    attempted = None
    if state is not None:
        attempted, errors = check(cfg, ref, state)
        result["errors"].extend(errors)
    result["attempted"] = attempted
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
