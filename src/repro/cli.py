"""The single ``repro`` entry point.

One console script fronts every tool in the stack::

    repro trace generate out.din --kind zipf --count 10000
    repro trace replay out.npz --size 16384 --columns 8
    repro experiments figure4 --quick
    repro experiments all --workers 8 --cache-dir .sweep-cache
    repro serve --quick
    repro fleet top --once --events-out events.npz
    repro lint --format sarif --output repro-lint.sarif

``repro trace`` and ``repro experiments`` delegate to the existing
tool parsers unchanged (every subcommand and flag works exactly as it
does under ``repro-trace`` / ``repro-experiments``); ``repro serve``
is a shorthand for ``repro experiments serve`` — the fleet-service
demonstration is the stack's headline, so it gets a top-level verb.
``repro fleet`` hosts the live-inspection tools (currently ``top``,
the virtual-clock shard monitor); ``repro lint`` runs the repo-aware
static analysis (:mod:`repro.analysis`).

The ``repro-trace`` and ``repro-experiments`` console scripts remain
as per-tool entry points.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.cli import main as experiments_main
from repro.trace.cli import main as trace_main


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: one command, the rest passed through."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Software-controlled column caches: traces, experiments, "
            "and the fleet service."
        ),
    )
    parser.add_argument(
        "command",
        choices=["trace", "experiments", "serve", "fleet", "lint"],
        help="trace tooling, figure experiments, the fleet-service "
        "demonstration, the live fleet-inspection tools, or the "
        "repo-aware static analysis",
    )
    parser.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments for the selected command",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Dispatch to the selected tool; returns a process exit code."""
    arguments = build_parser().parse_args(argv)
    if arguments.command == "trace":
        return trace_main(arguments.rest, prog="repro trace")
    if arguments.command == "experiments":
        return experiments_main(
            arguments.rest, prog="repro experiments"
        )
    if arguments.command == "fleet":
        from repro.fleet.service.top import main as fleet_main

        return fleet_main(arguments.rest, prog="repro fleet")
    if arguments.command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(arguments.rest, prog="repro lint")
    return experiments_main(
        ["serve", *arguments.rest], prog="repro experiments"
    )


if __name__ == "__main__":
    sys.exit(main())
