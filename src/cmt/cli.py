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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--data", help="dataset path or synth:KIND?... URI")
        p.add_argument("--snapshot", help="snapshot file to write (train) or read (test)")
        p.add_argument("--metrics", help="TSV metrics output path")
        p.add_argument("--alpha", type=float,
                       help="balance weight in (0, 1] for router training")
        p.add_argument("--leaf-mult", type=float, dest="c",
                       help="multiplier c on the log leaf capacity")
        p.add_argument("--reroutes", type=int, dest="d",
                       help="reroute passes per insert/update (d)")
        p.add_argument("--epsilon", type=float,
                       help="exploration probability during training")
        p.add_argument("--passes-unsup", type=int)
        p.add_argument("--passes-sup", type=int)
        p.add_argument("--hash-bits", type=int)
        p.add_argument("--scorer", choices=(SCORER_LEARNED, SCORER_EUCLIDEAN),
                       dest="scorer_mode")
        p.add_argument("--seed", type=int)
        p.add_argument("--update-on-exploit", action="store_true",
                       help="also train the scorer on non-exploratory returns")
        p.add_argument("--replace-duplicates", action="store_true",
                       help="re-inserting a stored key replaces it instead of erroring")
        p.set_defaults(**asdict(RunConfig()))

    p_train = sub.add_parser("train", help="build a tree from a dataset")
    add_common(p_train)

    p_test = sub.add_parser("test", help="read-only evaluation of a snapshot")
    add_common(p_test)

    p_ablate = sub.add_parser("ablate", help="sweep one parameter, train+test per value")
    add_common(p_ablate)
    p_ablate.add_argument("--param", choices=ABLATE_PARAMS, required=True)
    p_ablate.add_argument("--values", required=True,
                          help="comma-separated values, e.g. 0,1,5,10")

    p_bench = sub.add_parser("bench", help="insert/query scaling on synthetic stores")
    add_common(p_bench)
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
