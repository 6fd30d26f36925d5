"""Trace utilities CLI.

Usage::

    repro trace stats trace.din
    repro trace generate --kind zipf --count 10000 out.din
    repro trace simulate trace.din --size 2048 --columns 4
    repro trace record gzip out.npz --seed 3
    repro trace replay out.npz --size 16384 --columns 8
    repro trace profile out.npz

(The ``repro-trace`` console script accepts the same subcommands.)

``stats`` prints per-variable access counts and lifetimes; ``generate``
writes a synthetic trace in dinero format; ``record`` records any
workload-suite kernel into the columnar ``.npz`` on-disk format (or
dinero, by extension); ``replay`` (alias ``simulate``) streams a
recorded ``.npz``/dinero trace through the lockstep cache and prints
hit/miss totals, memory-mapping ``.npz`` archives so arbitrarily long
traces replay at a flat footprint (``--kernel`` selects the lockstep
backend); ``profile`` dumps the planner-facing per-variable profile
(counts, density, lifetime) of a recorded ``.npz``/dinero trace — the
bridge that lets externally captured traces feed the layout planner.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.cache.geometry import CacheGeometry
from repro.profiling.profiler import profile_trace
from repro.trace.columnar import DEFAULT_CHUNK_ACCESSES
from repro.trace.dinero import load_any, load_trace, save_trace
from repro.trace import generator
from repro.utils.tables import format_table


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    profile = profile_trace(trace)
    rows = []
    for stats in sorted(
        profile.variables.values(),
        key=lambda item: item.access_count,
        reverse=True,
    ):
        rows.append(
            [
                stats.name,
                stats.access_count,
                stats.read_count,
                stats.write_count,
                f"{stats.lifetime.start}..{stats.lifetime.stop}",
            ]
        )
    print(
        format_table(
            ["variable", "accesses", "reads", "writes", "lifetime"],
            rows,
            title=(
                f"{args.trace}: {len(trace)} accesses, "
                f"{trace.instruction_count} instructions"
            ),
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = generator.generate(
        args.kind,
        args.count,
        base=args.base,
        span=args.span,
        element_size=args.element_size,
        seed=args.seed,
    )
    lines = save_trace(trace, args.output)
    print(f"wrote {lines} accesses to {args.output}")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.workloads.suite import make_workload

    kwargs = {}
    for pair in args.param:
        key, _, value = pair.partition("=")
        if not _:
            raise SystemExit(f"--param wants key=value, got {pair!r}")
        kwargs[key] = int(value)
    run = make_workload(args.workload, seed=args.seed, **kwargs).record()
    trace = run.trace
    if args.output.endswith(".din"):
        lines = save_trace(trace, args.output)
        print(f"recorded {lines} accesses to {args.output} (dinero)")
        return 0
    written = trace.save_npz(args.output)
    print(
        f"recorded {len(trace)} accesses "
        f"({trace.instruction_count} instructions, "
        f"{len(trace.variables())} variables) to {written}"
    )
    return 0


def _mask_option(text: str) -> int:
    """``--mask``: a uniform mask ``LockstepCache`` accepts, or a
    usage error."""
    from repro.sim.engine.batched import check_masks

    try:
        mask = int(text)
        check_masks(None, mask)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return mask


def _positive_int(text: str) -> int:
    """A size or count option: a positive integer, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.sim.engine.replay import replay_trace

    try:
        geometry = CacheGeometry.from_sizes(
            args.size, line_size=args.line_size, columns=args.columns
        )
    except ValueError as error:
        args.usage_error(str(error))
    start = time.perf_counter()
    result = replay_trace(
        args.trace,
        geometry,
        chunk_accesses=args.chunk_size,
        uniform_mask=args.mask,
        kernel=args.kernel,
        mmap=not args.no_mmap,
    )
    elapsed = time.perf_counter() - start
    print(f"cache: {geometry}")
    print(
        f"accesses={result.accesses} hits={result.hits} "
        f"misses={result.misses} miss_rate={result.miss_rate:.4f}"
    )
    if elapsed > 0:
        print(
            f"replayed {result.accesses} accesses in {elapsed:.3f}s "
            f"({result.accesses / elapsed:,.0f}/s)"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    profile = profile_trace(load_any(args.trace, mmap=True))
    rows = []
    for stats in sorted(
        profile.variables.values(),
        key=lambda item: item.access_count,
        reverse=True,
    ):
        rows.append(
            [
                stats.name,
                stats.access_count,
                stats.read_count,
                stats.write_count,
                stats.size,
                f"{stats.density:.3f}",
                f"{stats.lifetime.start}..{stats.lifetime.stop}",
            ]
        )
    print(
        format_table(
            [
                "variable",
                "accesses",
                "reads",
                "writes",
                "bytes",
                "density",
                "lifetime",
            ],
            rows,
            title=(
                f"{args.trace}: {profile.total_accesses} accesses, "
                f"{profile.total_instructions} instructions, "
                f"{len(profile.variables)} variables"
            ),
        )
    )
    if profile.unattributed:
        share = profile.unattributed / max(profile.total_accesses, 1)
        print(
            f"unattributed: {profile.unattributed} accesses "
            f"({share:.1%}) carry no variable label"
        )
    return 0


def main(
    argv: Sequence[str] | None = None,
    prog: str = "repro-trace",
) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="per-variable statistics")
    stats.add_argument("trace", help="dinero trace file")
    stats.set_defaults(handler=_cmd_stats)

    generate = commands.add_parser("generate", help="synthesize a trace")
    generate.add_argument("output", help="output dinero file")
    generate.add_argument(
        "--kind", choices=generator.KINDS, default="zipf"
    )
    generate.add_argument("--count", type=int, default=10000)
    generate.add_argument("--base", type=int, default=0x10000)
    generate.add_argument("--span", type=int, default=8192)
    generate.add_argument("--element-size", type=int, default=2)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    record = commands.add_parser(
        "record", help="record a workload-suite kernel to disk"
    )
    record.add_argument("workload", help="registry name (see suite)")
    record.add_argument("output", help="output .npz (or .din) path")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="workload factory kwarg (repeatable, int values)",
    )
    record.set_defaults(handler=_cmd_record)

    replay = commands.add_parser(
        "replay",
        aliases=["simulate"],
        help="stream a recorded trace through the lockstep cache",
    )
    replay.add_argument("trace", help=".npz or dinero trace file")
    replay.add_argument("--size", type=_positive_int, default=16384)
    replay.add_argument("--line-size", type=_positive_int, default=16)
    replay.add_argument("--columns", type=_positive_int, default=4)
    replay.add_argument(
        "--mask", type=_mask_option, default=None,
        help="uniform replacement mask bits, non-negative "
        "(default: all columns)",
    )
    replay.add_argument(
        "--chunk-size", type=_positive_int, default=DEFAULT_CHUNK_ACCESSES,
        help="streaming window in accesses",
    )
    replay.add_argument(
        "--no-mmap", action="store_true",
        help="load .npz eagerly instead of memory-mapping",
    )
    replay.add_argument(
        "--kernel",
        choices=("auto", "numpy", "compiled"),
        default=None,
        help="lockstep kernel backend (default: REPRO_KERNEL or auto)",
    )
    replay.set_defaults(handler=_cmd_replay, usage_error=replay.error)

    profile = commands.add_parser(
        "profile",
        help="dump the planner-facing per-variable profile of a trace",
    )
    profile.add_argument("trace", help=".npz or dinero trace file")
    profile.set_defaults(handler=_cmd_profile)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
