"""Command line interface: cmt {train|test|ablate|bench}.

Exit codes: 0 success, 2 usage error, 3 data error, 4 snapshot error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from typing import Optional

from .features import MODES
from .learners import SCORER_EUCLIDEAN, SCORER_LEARNED
from .runner import (
    ABLATE_PARAMS,
    DataError,
    RunConfig,
    cmd_ablate,
    cmd_bench,
    cmd_test,
    cmd_train,
)
from .snapshot import SnapshotError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SNAPSHOT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmt",
        description="Self-organizing key-value memory tree with learned routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--mode": dict(choices=MODES),
        "--data": dict(help="dataset path or synth:KIND?... URI"),
        "--snapshot": dict(help="snapshot file to write (train) or read (test)"),
        "--metrics": dict(help="TSV metrics output path"),
        "--alpha": dict(type=float, help="balance weight in (0, 1] for router training"),
        "--leaf-mult": dict(type=float, dest="c", help="multiplier c on the log leaf capacity"),
        "--reroutes": dict(type=int, dest="d", help="reroute passes per insert/update (d)"),
        "--epsilon": dict(type=float, help="exploration probability during training"),
        "--passes-unsup": dict(type=int),
        "--passes-sup": dict(type=int),
        "--hash-bits": dict(type=int),
        "--scorer": dict(choices=(SCORER_LEARNED, SCORER_EUCLIDEAN), dest="scorer_mode"),
        "--seed": dict(type=int),
        "--update-on-exploit": dict(action="store_true",
                                    help="also train the scorer on non-exploratory returns"),
    }

    def add_command(name: str, summary: str, skipped=()) -> argparse.ArgumentParser:
        """A subcommand taking every flag but the skipped ones, which it would not read."""
        p = sub.add_parser(name, help=summary)
        for flag, options in flags.items():
            if flag not in skipped:
                p.add_argument(flag, **options)
        p.set_defaults(**asdict(RunConfig()))
        return p

    training = ("--alpha", "--leaf-mult", "--reroutes", "--epsilon", "--passes-unsup",
                "--passes-sup", "--scorer", "--update-on-exploit")
    add_command("train", "build a tree from a dataset")
    p_test = add_command("test", "read-only evaluation of a snapshot", training)
    p_test.set_defaults(hash_bits=None)  # left out: the snapshot's stored width
    p_ablate = add_command("ablate", "sweep one parameter, train+test per value", ("--snapshot",))
    p_ablate.add_argument("--param", choices=ABLATE_PARAMS, required=True)
    p_ablate.add_argument("--values", required=True,
                          help="comma-separated values, e.g. 0,1,5,10")
    p_bench = add_command("bench", "insert/query scaling on synthetic stores",
                          ("--mode", "--data", "--snapshot", "--epsilon", "--passes-unsup",
                           "--passes-sup", "--update-on-exploit"))
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated store sizes, e.g. 1000,10000")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _parse_values(raw: str, cast):
    values = [cast(v) for v in raw.split(",") if v != ""]
    if not values:
        raise ValueError("empty value list")
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "train":
            cmd_train(config)
        elif args.command == "test":
            cmd_test(config)
        elif args.command == "ablate":
            cast = float if args.param == "c" else int
            cmd_ablate(config, args.param, _parse_values(args.values, cast))
        else:
            cmd_bench(config, _parse_values(args.sizes, int))
    except SnapshotError as exc:
        print(f"cmt: snapshot error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT
    except DataError as exc:
        print(f"cmt: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"cmt: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
