"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload at the tiny input size, untraced and traced, and
checks that each result line names exactly the metrics of
``BENCHMARK.json`` with their units and reports no failed check. Then
runs each workload once more with one output row dropped before the
checks, which must make the run report a failed check. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, trace: int, corrupt: bool = False) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {res['failed']} of {res['attempted']} failed")
            if trace == 0 and any(not v["value"] for v in res["metrics"].values()):
                problems.append(f"{w}: an end-to-end metric is zero")
        res = run(w, 0, corrupt=True)
        if res["correct"] or res["failed"] / res["attempted"] <= 0:
            problems.append(f"{w}: a dropped output row went unnoticed")
        print(f"{w}: done", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
