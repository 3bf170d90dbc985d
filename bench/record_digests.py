"""Record bench/digests.json: the checked values of every workload input set.

    python3 bench/record_digests.py

Runs `bench/sample.py` for every workload and seed slot, two at a
time, refuses to record a sample whose bound or exactness checks fail, and
writes the values the samples compare against.  Re-record only when a change
is meant to move report values; the digest is how the benchmark sees that
they did not move.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from run import SAMPLE, child_env
from sample import DIGESTS, SEED_SLOTS, WORKLOADS


def record(key: str) -> tuple[str, dict]:
    workload, slot = key.split("/")
    proc = subprocess.run(
        [sys.executable, SAMPLE, "--workload", workload, "--seed", slot],
        capture_output=True, text=True, env=child_env(), check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = [f for f in result["failures"] if not f.startswith("digest:")]
    if bad:
        raise SystemExit(f"{key}: checks failed, not recording: {bad}")
    return key, result["values"]


def main() -> int:
    keys = [f"{w}/{i}" for w in WORKLOADS for i in range(SEED_SLOTS)]
    digests = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for key, values in pool.map(record, keys):
            digests[key] = values
            print(f"{key}: {len(values)} values", flush=True)
    with open(DIGESTS + ".tmp", "w") as fp:
        json.dump(digests, fp, indent=0, sort_keys=True)
        fp.write("\n")
    os.replace(DIGESTS + ".tmp", DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
