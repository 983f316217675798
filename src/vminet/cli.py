"""Command-line entry point.

Subcommands:
    train  --config <file>
    eval   --checkpoint <file> --data <path>
    bench  --kernel <name> --lengths <csv> --dim <n> --reps <n> --out <csv>
    verify [--seed <n>] [--trials <n>]

Exit codes: 0 on success, 1 when a suite or run fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .bench import DEFAULT_DIM, DEFAULT_LENGTHS, KERNELS, bench_scaling, write_bench_csv
from .errors import ConfigError, FormatError
from .training import evaluate, load_checkpoint, parse_train_config, train
from .data import load_dataset
from .verify import run_verify_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vminet",
        description="Gated separable attention: training, evaluation, scaling "
                    "benchmarks, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training job from a key=value config file")
    p_train.add_argument("--config", required=True, help="path to a key=value config file")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True, help="path to a .vmin checkpoint")
    p_eval.add_argument("--data", required=True,
                        help="dataset path or synthetic:n=..,classes=..,seed=.. spec")
    p_eval.add_argument("--batch-size", type=int, default=256, help="evaluation batch size")

    p_bench = sub.add_parser("bench", help="time one kernel across sequence lengths")
    p_bench.add_argument("--kernel", required=True, choices=sorted(KERNELS),
                         help="kernel to benchmark")
    p_bench.add_argument("--lengths", default=",".join(str(l) for l in DEFAULT_LENGTHS),
                         help="comma-separated sequence lengths (default %(default)s)")
    p_bench.add_argument("--dim", type=int, default=DEFAULT_DIM,
                         help="feature dimension (default %(default)s)")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timed repetitions per length, >= 5 (default %(default)s)")
    p_bench.add_argument("--out", default="", help="write results to this CSV file")
    p_bench.add_argument("--seed", type=int, default=0, help="input seed")

    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("--seed", type=int, default=0, help="suite seed")
    p_verify.add_argument("--trials", type=int, default=200,
                          help="base trial count; lower for a faster pass")
    return parser


def _cmd_train(args) -> int:
    cfg = parse_train_config(args.config)
    history = train(cfg)
    last = history.epochs[-1]
    print(f"finished epoch {last.epoch} (step {last.step}): "
          f"train_loss={last.train_loss:.6f} train_acc={last.train_acc:.4f} "
          f"val_acc={last.val_acc:.4f}")
    print(f"metrics: {history.metrics_path}")
    print(f"checkpoint: {history.final_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    model, _, epoch, step = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    acc = evaluate(model, ds, batch_size=args.batch_size)
    print(f"samples={len(ds)} epoch={epoch} step={step} accuracy={acc:.6f}")
    return 0


def _cmd_bench(args) -> int:
    try:
        lengths = [int(part) for part in args.lengths.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--lengths must be comma-separated integers: {exc}") from None
    report = bench_scaling(args.kernel, lengths=lengths, dim=args.dim, reps=args.reps,
                           seed=args.seed)
    print(f"kernel={report.kernel} D={report.dim} reps={report.reps} "
          f"blas_threads={report.blas_threads}")
    for row in report.rows:
        print(f"  L={row.L:<6d} median={row.median_s:.6e}s iqr={row.iqr_s:.3e}s")
    print(f"log-log slope: {report.slope:.3f} +/- {report.slope_halfwidth:.3f} (95%)")
    if args.out:
        write_bench_csv(args.out, report)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verify_suite(seed=args.seed, trials=args.trials)
    return 0 if all(r.passed for r in results) else 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
