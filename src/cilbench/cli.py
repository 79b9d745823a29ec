"""Command-line entry point.

Subcommands:
  run       -- execute one experiment from a JSON config
  ablate-n  -- sweep the neighbor-count filter over shared seeds
  verify    -- run the built-in property/oracle battery

Exit codes: 0 success; 1 a verify check failed; 2 usage or configuration
error, a config file that cannot be read or is not UTF-8 JSON and an
output directory that cannot be created (before any training) included;
3 data error, a data file that cannot be read included; 4 training
diverged (the loss went non-finite; the result files hold the tasks
finished before the divergence, and none are written if the first task
diverged).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigurationError, DataError, DivergenceError
from .harness import ablate_n, load_config, run_and_emit
from .selfcheck import run_selfcheck


def _int_list(text: str) -> list[int]:
    """argparse type of a comma-separated list of integers; a bad list is
    a usage error (exit 2) before any config is read."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cilbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="global seed (overrides config)")

    run_p = sub.add_parser("run", help="run one experiment")
    add_common(run_p)

    abl_p = sub.add_parser("ablate-n", help="neighbor-count ablation")
    add_common(abl_p)
    abl_p.add_argument(
        "--values", type=_int_list, default="0,3,5,8", help="comma-separated n values"
    )
    abl_p.add_argument("--seeds", type=_int_list, help="comma-separated seeds")

    ver_p = sub.add_parser("verify", help="run the property/oracle suite")
    ver_p.add_argument("--seed", type=int, default=0)
    return parser


def _resolved_config(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _resolved_config(args)
            result = run_and_emit(cfg)
            for r in result.records:
                print(
                    f"task {r.task_index}: accuracy={r.accuracy:.4f} "
                    f"avg={r.avg_accuracy:.4f} exemplars={r.exemplar_count}"
                )
            print(f"results written to {cfg.out_dir}")
        elif args.command == "ablate-n":
            cfg = _resolved_config(args)
            table = ablate_n(cfg, args.values, args.seeds or [cfg.seed])
            for (n, seed), aa in sorted(table.items()):
                print(f"n={n} seed={seed}: avg_accuracy={aa:.4f}")
        else:  # verify
            ok = True
            for name, passed in run_selfcheck(args.seed):
                print(f"{'PASS' if passed else 'FAIL'}  {name}")
                ok = ok and passed
            if not ok:
                return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
