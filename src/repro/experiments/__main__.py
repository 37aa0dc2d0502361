"""CLI entry point: ``python -m repro.experiments <name> [--full] [--incremental]``."""

import argparse
import inspect
import sys

from . import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (importable so docs checks can dry-run it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (e.g. table3, fig6); 'all' runs everything",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's dataset sizes and round counts (slow)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "warm-started dirty-frontier EM for the crowd-loop experiments:"
            " each round re-converges only the objects touched by new"
            " answers (TDH/LFC; falls back to cold fits whenever a delta"
            " cannot be served exactly)"
        ),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_help()
        print("\navailable experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"=== {name} ===")
        entry = EXPERIMENTS[name].main
        kwargs = {"full": args.full}
        parameters = inspect.signature(entry).parameters
        if "incremental" in parameters:
            kwargs["incremental"] = args.incremental
        entry(**kwargs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
