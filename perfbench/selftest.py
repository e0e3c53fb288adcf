"""Self-test of the benchmark: every metric present, with its unit, and no errors.

Runs each workload briefly, untraced and traced, and checks the last output
line against ``BENCHMARK.json``: exactly the end-to-end metrics (or the
per-layer ones with ``--trace 1``), each a number with the declared unit,
end-to-end values non-zero, ``correct`` true and no failed call.  Finally
checks that the benchmark refuses to run without the library sources.

    python3 perfbench/selftest.py [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, seconds: float, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def check(workload: str, trace: int, seconds: float, spec: dict) -> list:
    section = "per_layer" if trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    done = run(ROOT, workload, seconds, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        problems.append("no call attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        if entry.get("unit") != declared.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
        elif not trace and entry["value"] == 0:
            problems.append(f"{name}: zero")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, args.seconds, spec)
            failures += bool(problems)
            print(f"{workload:14} trace={trace} {'ok' if not problems else problems}")

    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "steady-tiny", 1, 0)
        refused = done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"{'without src':14} {'refused' if refused else 'NOT refused'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
