"""Command-line interface: ``ssph train``, ``ssph predict``, ``ssph eval``."""

from __future__ import annotations

import argparse
import functools
import sys

from .dssp import CLASS_ORDER
from .errors import LengthMismatch, RecordMismatch, SsphError
from .io import (atomic_write_text, format_label_records, parse_fasta,
                 parse_label_records, parse_labeled_dataset, read_models,
                 read_text, write_models, write_texts)
from .metrics import confusion, format_report, format_report_csv
from .predictor import predict_structures
from .predictor import predict_structure  # noqa: F401 (perfbench traces it here)
from .training import train_models


def _check_flags(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric flags with an ``error:`` line and exit 1;
    argparse ``type=`` validators would exit 2 with usage text instead."""
    for flag, low in (("states", 1), ("window", 1), ("iters", 0), ("seed", 0)):
        if getattr(args, flag, low) < low:
            raise ValueError(f"--{flag} must be >= {low}")
    if not getattr(args, "tol", 1.0) > 0:  # also rejects NaN
        raise ValueError("--tol must be > 0")


def cmd_train(args: argparse.Namespace) -> None:
    records = parse_labeled_dataset(read_text(args.data))
    models, traces = train_models(
        records, num_states=args.states, half_width=args.window,
        max_iters=args.iters, tol=args.tol, seed=args.seed)
    write_models(models, args.out)
    for label in CLASS_ORDER:
        trace = traces[label]
        if trace:
            print(f"class {label}: final log-likelihood {trace[-1]:.6f} "
                  f"after {len(trace)} iterations")
        else:
            print(f"class {label}: no iterations run")


def cmd_predict(args: argparse.Namespace) -> None:
    models = read_models(args.models)
    records = parse_fasta(read_text(args.fasta))
    labels = predict_structures(models, (rec.sequence for rec in records),
                                half_width=args.window,
                                boundary_label=args.boundary_label)
    atomic_write_text(args.out, format_label_records(
        [(rec.id, rec_labels) for rec, rec_labels in zip(records, labels)]))


def cmd_eval(args: argparse.Namespace) -> None:
    preds = parse_label_records(read_text(args.pred))
    truths = parse_label_records(read_text(args.truth))
    if len(preds) != len(truths):
        raise RecordMismatch(f"{len(preds)} prediction records vs "
                             f"{len(truths)} truth records")
    for (pred_id, pred), (truth_id, truth) in zip(preds, truths):
        if pred_id != truth_id:
            raise RecordMismatch(
                f"record id {pred_id!r} in predictions vs {truth_id!r} in truth")
        if len(pred) != len(truth):
            raise LengthMismatch(
                f"record {pred_id!r}: prediction length {len(pred)} != "
                f"truth length {len(truth)}")
    # Residues dropped from each end of every record before scoring.
    margin = 0 if args.include_boundary_in_eval else args.window
    pred, truth = ("".join(labels[margin:len(labels) - margin]
                           for _, labels in records)
                   for records in (preds, truths))
    total = confusion(pred, truth)
    report = format_report(total)
    # A failed run changes no output file and prints no report.
    outputs = [(args.out, report)] if args.out else []
    if args.csv:
        outputs.append((args.csv, format_report_csv(total)))
    write_texts(outputs)
    if not args.out:
        print(report, end="")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ssph`` argument parser, built on the first call and returned by
    every later one, so callers must not change it. Parsing leaves it
    unchanged, and each ``add_argument`` of a fresh build costs a help
    formatter and a terminal-size query."""
    parser = argparse.ArgumentParser(
        prog="ssph",
        description="Sliding-window protein secondary structure prediction "
                    "with per-class hidden Markov models.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit the three class models")
    train.add_argument("--data", required=True,
                       help="labeled dataset (3-line records)")
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--states", type=int, default=2,
                       help="hidden states per model (default 2)")
    train.add_argument("--window", type=int, default=5,
                       help="window half-width (default 5)")
    train.add_argument("--iters", type=int, default=100,
                       help="max Baum-Welch iterations (default 100)")
    train.add_argument("--tol", type=float, default=1e-6,
                       help="log-likelihood convergence tolerance")
    train.add_argument("--seed", type=int, default=0,
                       help="seed for model initialization")

    predict = sub.add_parser("predict", help="label FASTA sequences")
    predict.add_argument("--models", required=True, help="trained model file")
    predict.add_argument("--fasta", required=True, help="input sequences")
    predict.add_argument("--out", required=True, help="predictions to write")
    predict.add_argument("--window", type=int, default=5,
                         help="window half-width (default 5)")
    predict.add_argument("--boundary-label", default="C",
                         choices=list(CLASS_ORDER),
                         help="label for positions without a complete window")

    evaluate = sub.add_parser("eval", help="score predictions against truth")
    evaluate.add_argument("--pred", required=True, help="prediction file")
    evaluate.add_argument("--truth", required=True, help="truth label file")
    evaluate.add_argument("--window", type=int, default=5,
                          help="half-width used when excluding boundaries")
    evaluate.add_argument("--include-boundary-in-eval",
                          action=argparse.BooleanOptionalAction, default=True,
                          help="score the first/last half-width residues too")
    evaluate.add_argument("--out", default=None,
                          help="write the text report here instead of stdout")
    evaluate.add_argument("--csv", default=None,
                          help="also write a CSV report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "predict": cmd_predict, "eval": cmd_eval}
    try:
        _check_flags(args)
        commands[args.command](args)
    except (SsphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a --states too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
