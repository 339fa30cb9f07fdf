"""Self-test of the benchmark harness on the smallest instances (cross-polytope 3, bary3).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that an untraced and a traced run of the ``tiny`` workload pass
every answer check and print exactly the metrics BENCHMARK.json names,
that the counts of two traced runs repeat exactly, and that the harness
exits non-zero without printing a result when the package source is
missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# per-layer metrics that count work rather than time, so must repeat exactly
EXACT_SUFFIXES = (".calls", ".errors", ".entries", ".nodes", ".edges", "_ratio", ".spans")


def _run(cwd: str, trace: int, seed: int = 7) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("tiny workload failed:\n" + "\n".join(lines[:-1]))
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    rc, lines = _run(ROOT, 0)
    assert rc == 0, f"untraced run exited {rc}"
    got = _result(lines)["metrics"]
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in got.items()} == want, f"end-to-end metrics {sorted(got)}"

    traced = []
    for _ in range(2):
        rc, lines = _run(ROOT, 1)
        assert rc == 0, f"traced run exited {rc}"
        traced.append(_result(lines)["metrics"])
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced[0].items()} == want, "per-layer metrics differ from BENCHMARK.json"
    for name in want:
        if name.endswith(EXACT_SUFFIXES) and traced[0][name] != traced[1][name]:
            raise AssertionError(f"{name} differs across traced runs: {traced[0][name]} {traced[1][name]}")

    bare = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = _run(bare, 0)
        assert rc != 0, "harness without package source exited 0"
        assert not any(line.startswith("{") for line in lines), "harness without source printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
