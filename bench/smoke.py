"""Tiny-size self-test of the benchmark runner (K = 8, n = 10); not part of the test suite.

Usage, from the root of a checkout: python3 bench/smoke.py

Runs every workload at the smoke size with --trace 0 and --trace 1 and
checks that the result line names every metric of BENCHMARK.json with its
unit and that the outputs were checked and passed.  Then feeds wrong
outputs to each output check, which must reject them, and runs
compare.py on the records.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
from qtchains.verify import CheckResult  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def run_workloads(spec: dict, out: Path) -> None:
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "smoke", "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            tag = f"{wl} --trace {trace}"
            expect(proc.returncode == 0, f"{tag} exits 0" + (f": {proc.stderr[-300:]}" if proc.returncode else ""))
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{tag} outputs checked and correct")
            names = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names, f"{tag} emits every metric with its unit")
            expect(
                all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                f"{tag} metric values are numbers",
            )


def check_rejections(work: Path) -> None:
    ref = json.loads((BENCH / "references.json").read_text())["smoke"]
    cfg = {"out_path": str(work / "payload.json"), "pairs": 1, "n": 2, "cat_n": 8}
    Path(cfg["out_path"]).write_text(json.dumps({"chains": [{"mu": "1", "partner": "1"}]}))
    _, errors = child.check_build(cfg, ref, 0)
    expect(bool(errors), "check_build rejects a wrong collection")
    _, errors = child.check_verify(cfg, ref, (1, f"{ref['verify_rows'] - 1}/{ref['verify_rows']} checks passed\n"))
    expect(bool(errors), "check_verify rejects a failed row")
    rows = [CheckResult("opposite-n1", True), CheckResult("opposite-n2", False, "q vs t")]
    slices = [(k, True) for k in child.SLICE_KS]
    _, errors = child.check_pathsum(cfg, ref, (ref["pathsum_pool"], rows, slices))
    expect(bool(errors), "check_pathsum rejects a failed opposite row")
    rows[1] = CheckResult("opposite-n2", True)
    slices[2] = (2, False)
    _, errors = child.check_pathsum(cfg, ref, (ref["pathsum_pool"], rows, slices))
    expect(bool(errors), "check_pathsum rejects a wrong deficit slice")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        records = work / "records.jsonl"
        run_workloads(spec, records)
        check_rejections(work)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "compare.py"), str(records), str(records)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode == 0, "compare.py accepts identical record sets")
        for wl in (w["name"] for w in spec["workloads"]):
            expect(proc.stdout.count(f"\n{wl} ") >= len(spec["end_to_end"]), f"compare.py reports {wl}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
