"""Benchmark entry point: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure5 --seed 1 --seconds 15 --trace 0

Workloads: ``figure5``, ``serve``, ``replay``, ``adaptive`` (see
README.md).  With ``--trace 0`` the result carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of one traced round instead.  The last line of
standard output is the result; the line before it is the run record
(manifest and deterministic outputs).  Progress and errors go to
standard error.

Each run:

1. builds the compiled kernel once into ``.bench_build/`` (shared by
   every run of the checkout) and byte-compiles the sources, so no
   compilation lands in a measured number;
2. starts ``SETUP_PROBES`` set-up-only processes and reports the median
   set-up time of those and the workload process;
3. starts the workload in a fresh interpreter pinned to the compiled
   kernel, single-threaded BLAS/OpenMP and a fixed hash seed, with
   every other on-disk cache in a per-run temporary directory that is
   removed afterwards.

Every timed interval is reported in reference seconds: host seconds
divided by the host slowness that calibration.py measures around it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from calibration import Calibration, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BUILD = ROOT / ".bench_build"
KERNELS = BUILD / "repro-kernels"

WORKLOADS = ("figure5", "serve", "replay", "adaptive")
#: Set-up-only processes per run (plus the workload process itself).
SETUP_PROBES = 4
#: No single process may outlive this; a run must end within 180 s.
PROCESS_TIMEOUT_S = 150
#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_accesses_per_s": "1/s",
    "sim_miss_rate": "ratio",
}


def _environment(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SOURCE),
        PYTHONHASHSEED="0",
        REPRO_KERNEL="compiled",
        REPRO_KERNEL_CACHE=str(KERNELS),
        XDG_CACHE_HOME=str(scratch),
        TMPDIR=str(scratch),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        BLIS_NUM_THREADS="1",
    )
    return env


def _child(arguments: list[str], env: dict[str, str], timeout: float) -> dict[str, Any]:
    """Run one Python process to completion; its last stdout line as JSON."""
    command = [sys.executable, *arguments]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{command[1:3]} timed out after {timeout:.0f}s")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if process.returncode != 0:
        raise RuntimeError(f"{command[1:]} exited {process.returncode}:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{command[1:]} printed nothing:\n{err[-4000:]}")
    return json.loads(lines[-1])


def _worker(mode: str, args: argparse.Namespace, scratch: Path, extra: list[str]) -> dict[str, Any]:
    arguments = [
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scratch", str(scratch),
        *(["--tiny"] if args.tiny else []),
        *extra,
    ]
    arguments += ["--launched", repr(time.monotonic())]
    return _child(arguments, _environment(scratch), PROCESS_TIMEOUT_S)


def _prepare(scratch: Path) -> None:
    """Build and load the kernel, byte-compile the sources (unmeasured)."""
    code = (
        "import compileall, repro.cli\n"
        "from repro.sim.engine import backends\n"
        "backends.set_backend('compiled')\n"
        f"compileall.compile_dir({str(SOURCE)!r}, quiet=1)\n"
        f"compileall.compile_dir({str(HERE)!r}, quiet=1, maxlevels=0)\n"
        "print('{}')\n"
    )
    _child(["-c", code], _environment(scratch), 600)


def _steal_ticks() -> Optional[int]:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git() -> dict[str, Any]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"revision": None, "dirty": None}
    def git(*words: str) -> str:
        return subprocess.run(
            ["git", *words], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def _source_digest() -> str:
    """sha256 over every file under src/ (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SOURCE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _manifest(args: argparse.Namespace, child: dict[str, Any], steal: Optional[int], load: tuple) -> dict[str, Any]:
    kernel = child.get("kernel") or {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": child.get("shape"),
        "git": _git(),
        "source_sha256": _source_digest(),
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": kernel.get("numpy"),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "repro_env": {key: value for key, value in sorted(_environment(BUILD).items()) if key.startswith("REPRO_")},
        "steal_ticks": steal,
        "loadavg_at_start": load,
    }


def _reference(setup: dict[str, float], before: float, after: float) -> dict[str, float]:
    slowness = (before + after) / 2
    return {key: reference_seconds(value, slowness) for key, value in setup.items()}


def run(args: argparse.Namespace) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    clock = Calibration()
    raw: list[dict[str, float]] = []
    setups: list[dict[str, float]] = []
    try:
        load = os.getloadavg()
        _prepare(scratch)
        for _ in range(SETUP_PROBES):
            before = clock.measure()
            raw.append(_worker("setup", args, scratch, [])["setup"])
            setups.append(_reference(raw[-1], before, clock.measure()))
        steal_before = _steal_ticks()
        before = clock.measure()
        if args.trace:
            spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
            child = _worker("trace", args, scratch, ["--spans-out", str(spans)])
        else:
            child = _worker("run", args, scratch, ["--force-mismatch"] if args.force_mismatch else [])
        steal_after = _steal_ticks()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw.append(child["setup"])
    setups.append(_reference(raw[-1], before, child["after_setup_slowness"]))
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    steal = None if steal_before is None or steal_after is None else steal_after - steal_before
    if args.trace:
        values = dict(child["layers"])
        values["cli.import_s"] = setup["cli.import_s"]
        values["sim.engine.backends.load_s"] = setup["sim.engine.backends.load_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = dict(child["metrics"], setup_s=setup["setup_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in child["problems"]:
        print(f"verification: {problem}", file=sys.stderr)
    record = {
        "manifest": _manifest(args, child, steal, load),
        "setup_raw_s": raw,
        "rounds": child.get("rounds"),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


#: Unit of every per-layer metric (BENCHMARK.json lists the same).
LAYER_UNITS = {
    "cli.import_s": "s",
    "sim.engine.backends.load_s": "s",
    "workloads.record_s": "s",
    "workloads.record_calls": "count",
    "workloads.recorded_accesses": "count",
    "trace.load_s": "s",
    "trace.blocks_s": "s",
    "trace.chunks": "count",
    "trace.cli_s": "s",
    "profiling.profile_s": "s",
    "profiling.profile_calls": "count",
    "layout.plan_s": "s",
    "layout.plan_calls": "count",
    "layout.session_hit_ratio": "ratio",
    "sim.multitask.schedule_s": "s",
    "sim.multitask.schedule_calls": "count",
    "sim.engine.kernel_s": "s",
    "sim.engine.kernel_calls": "count",
    "sim.engine.kernel_accesses": "count",
    "sim.engine.accesses_per_call": "count",
    "sim.engine.prep_s": "s",
    "sim.engine.matrix_self_s": "s",
    "sim.engine.fused_self_s": "s",
    "sim.engine.sweep_self_s": "s",
    "sim.engine.result_cache_hits": "count",
    "sim.executor.run_s": "s",
    "sim.executor.accesses": "count",
    "baselines.page_coloring_s": "s",
    "runtime.adaptive_s": "s",
    "runtime.windows": "count",
    "runtime.remaps": "count",
    "fleet.broker.price_s": "s",
    "fleet.broker.price_calls": "count",
    "fleet.broker.admit_s": "s",
    "fleet.broker.admit_calls": "count",
    "fleet.service.shard.admit_s": "s",
    "fleet.service.shard.advance_s": "s",
    "fleet.service.shard.advance_calls": "count",
    "fleet.service.shard.snapshot_s": "s",
    "fleet.service.shard.snapshot_calls": "count",
    "fleet.service.shard.audit_s": "s",
    "fleet.service.daemon.self_s": "s",
    "fleet.service.daemon.admit_latency_p50_ms": "ms",
    "fleet.service.daemon.admit_latency_p99_ms": "ms",
    "fleet.service.daemon.clock_wakeups": "count",
    "fleet.service.daemon.migrations": "count",
    "fleet.service.daemon.admissions_per_s": "1/s",
    "fleet.service.daemon.queue_wait_p50_instr": "instructions",
    "fleet.service.daemon.queue_wait_p99_instr": "instructions",
    "inspect.events_recorded": "count",
    "inspect.events_dropped": "count",
    "experiments.assemble_s": "s",
    "process.cpu_s": "s",
    "tracing.wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.residual_s": "s",
    "tracing.accounted_share": "ratio",
    "tracing.spans": "count",
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (not comparable)")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="self-test: count round 0 as a failed verification")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Terminated from outside: unwind, so the child is killed and
    # reaped and the per-run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
