"""The benchmark's reference figures still describe the library's output.

Each benchmark run checks its outputs against bench/references.json; a
change that alters the deficit-16 collection, its file, its verify rows or
the pool of pairs the path-sum workload samples from fails here first.
"""

import hashlib
import json
from pathlib import Path

from qtchains.builder import collection_payload, save_collection, validate_collection

REFS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text()
)["full"]


def test_deficit_16_payload_digest(coll16):
    payload = collection_payload(coll16)
    assert len(payload["chains"]) == REFS["chains"]
    assert len(coll16.pairs()) == REFS["pairs"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == REFS["payload_sha256"]


def test_deficit_16_file_digest(coll16, tmp_path):
    path = tmp_path / "chains.json"
    save_collection(coll16, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFS["input_sha256"]


def test_deficit_16_verify_rows(coll16):
    rows = validate_collection(coll16)
    assert len(rows) == REFS["verify_rows"]
    assert all(r.ok for _, r in rows)


def test_pathsum_pool(coll16):
    assert sum(6 <= sum(mu) <= 16 for mu, _ in coll16.pairs()) == REFS["pathsum_pool"]
