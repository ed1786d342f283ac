"""Command-line entry point.

Subcommands run the pipeline stages over a configuration file; every run
is reproducible from that file plus the seed. Exit codes: 0 success,
1 usage error or a file the operating system refuses, 2 data/format error
(a file's content is wrong), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import PipelineConfig, load_config
from .errors import DataFormatError, NumericError, UsageError

_COMMANDS = {pipeline.command_name(fn): fn for fn, _ in pipeline.STAGES}
_COMMANDS.update(pipeline=pipeline.run_pipeline, synth=pipeline.run_synth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatscreen",
        description="Chat-log screening: LSTM sentence vectors, conversation "
                    "classification, and author scoring.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="configuration file (key = value "
                                        "with [section] headers)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for bad usage; our contract says 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # os.replace names its temp file first, then the file asked for
        where = exc.filename2 if exc.filename2 is not None else exc.filename
        print(f"error: {exc}" if where is None
              else f"error: {where}: {exc.strerror}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
