"""Self-test of the benchmark at tiny sizes (about two minutes).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that:

* every end-to-end metric of BENCHMARK.json is printed, with its unit,
  for every workload, and every per-layer metric in the traced run;
* the same seed gives identical deterministic outputs (miss rate,
  serve queue waits) run after run;
* the traced round reproduces the untraced round's simulated outputs
  exactly, and its layer self times plus the unwrapped residual
  account for its wall time;
* a forced verification mismatch is counted as failed operations;
* without the program's sources the benchmark fails without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[dict[str, Any]]]:
    """Run the benchmark tiny; (exit code, JSON lines of stdout)."""
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in process.stdout.splitlines() if line.startswith("{")]
    if process.returncode != 0:
        sys.stderr.write(process.stderr[-3000:])
    return process.returncode, lines


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, first = bench(workload)
        code_again, second = bench(workload)
        code_traced, traced = bench(workload, "--trace", "1")
        if code or code_again or code_traced:
            expect(False, f"{workload}: every run exits 0", failures)
            continue
        result, record = first[-1], first[-2]
        units = {name: value["unit"] for name, value in result["metrics"].items()}
        expect(units == end_to_end, f"{workload}: end-to-end metrics and units as BENCHMARK.json", failures)
        expect(result["correct"] and result["failed"] == 0, f"{workload}: outputs verified, no failed operation", failures)
        fixed, fixed_again = record["rounds"]["fixed"], second[-2]["rounds"]["fixed"]
        expect(
            fixed == fixed_again
            and result["metrics"]["sim_miss_rate"] == second[-1]["metrics"]["sim_miss_rate"],
            f"{workload}: same seed, identical miss rate and outputs", failures,
        )
        layers = traced[-1]
        values = {name: value["value"] for name, value in layers["metrics"].items()}
        expect(
            {name: value["unit"] for name, value in layers["metrics"].items()} == per_layer,
            f"{workload}: traced run prints every per-layer metric", failures,
        )
        expect(layers["correct"] and layers["failed"] == 0,
               f"{workload}: traced outputs equal the untraced run's", failures)
        expect(abs(values["tracing.accounted_share"] - 1.0) < 0.03,
               f"{workload}: self times + residual = traced wall", failures)
        if workload == "serve":
            expect(
                (values["fleet.service.daemon.queue_wait_p50_instr"],
                 values["fleet.service.daemon.queue_wait_p99_instr"])
                == (fixed[0]["queue_wait_p50_instr"], fixed[0]["queue_wait_p99_instr"]),
                "serve: traced queue waits equal the untraced run's", failures,
            )
    code, lines = bench("replay", "--force-mismatch")
    expect(
        code == 0 and not lines[-1]["correct"] and lines[-1]["failed"] > 0,
        "forced mismatch counts as failed operations", failures,
    )
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("figure5", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not lines, "without src/ it fails and prints no result", failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
