"""Rewrite `model_hashes.json` from the current code.

    python3 perfbench/update_hashes.py

Runs one round of each workload with seed 1 at both sizes (each in its
own process) and stores the sha256 of every model file it trains.  Every
later run reports in its run record whether its model files still match
these hashes: a refactor that claims byte-identical output can show it.
The hashes gate no metric.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import HASHES, OUT, WORKLOADS  # noqa: E402

SEED = 1
SIZES = ("standard", "tiny")


def main():
    table = {}
    for size in SIZES:
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(SEED),
                   "--seconds", "0", "--trace", "0", "--size", size]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"{workload} ({size}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            path = os.path.join(OUT, "records",
                                f"{workload}-{size}-seed{SEED}-trace0.json")
            with open(path) as fh:
                record = json.load(fh)
            if record["errors"]:
                print(f"{workload} ({size}) failed its checks: "
                      f"{record['errors'][:3]}", file=sys.stderr)
                return 1
            table.setdefault(size, {}).setdefault(workload, {})[str(SEED)] = \
                record["model_sha256"]
    with open(HASHES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
