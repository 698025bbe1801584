"""Print the outputs to pin in workloads.json for the default seed.

    python3 perfbench/pin.py [workload ...]

Each workload runs one untraced pass with ``workers=1``, so a workload that
runs on a process pool is then checked against single-process output.
Re-pin only when a change is meant to alter the reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from gate import sha256_file


def pin(name: str, workload: dict, seed: int) -> dict:
    work = run.WORK_DIR / f"pin-{name}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        expect = run.generate_input(name, seed, work / "dump.tsv")
        configs = [run.RecommenderConfig(tag) for tag in workload["algorithms"]]
        single = {**workload, "workers": 1}
        result = run.run_pass(single, run.dataset_spec(workload, work / "dump.tsv", seed), configs, seed, work / "out")
        return {
            "seed": seed,
            "stats_line": expect["stats_line"],
            "test_users": result["test_users"],
            "fingerprint": result["fingerprint"],
            "summary_sha256": sha256_file(work / "out" / "reports" / "summary.json"),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names) -> int:
    config = run.load_workloads()
    for name in names or config["workloads"]:
        print(json.dumps({name: pin(name, config["workloads"][name], config["default_seed"])}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
