"""Command-line interface.

Subcommands: estimate (full pipeline), mi (per-dimension MI/weights), bound
(KL order-preservation bounds), inject-noise (synthesize noisy labels), eval
(estimation error between two matrices), train (downstream linear check).
"""

import argparse
import json
import sys
from dataclasses import replace

from .core import (ACTIVATIONS, DIVERGENCES, VARIANTS, DataError, EstimatorConfig,
                   NoiseRatePair, OptimizerConfig, TransitionMatrix, dump_json,
                   load_dataset, save_dataset, save_json)
from .evaluation import estimation_error, train_linear
from .infotheory import build_weights, estimate_fmi_per_dim, kl_order_gap, practical_gap
from .noise import NoiseScheme, avg_noise_rate_from_r, build_transition, inject_noise
from .pipeline import estimate


def _cmd_estimate(args):
    data = load_dataset(args.input, k=args.k)
    config = EstimatorConfig(
        variant=args.variant, bins=args.bins, activation=args.activation,
        seed=args.seed,
        optimizer=OptimizerConfig(max_iters=args.max_iters, tolerance=args.tolerance),
    )
    true_t = TransitionMatrix.load(args.true_t) if args.true_t else None
    report = estimate(data, config, true_t=true_t)
    if args.output:
        save_json(report, args.output)
    dump_json(replace(report, consensus=None), sys.stdout)  # c3 only in --output
    print()
    return 0


def _cmd_mi(args):
    data = load_dataset(args.input, k=args.k)
    mi = estimate_fmi_per_dim(data.features, data.noisy_labels, args.divergence, args.bins)
    weights = build_weights(mi, args.activation)
    print("dim,mi,weight")
    for i, (v, w) in enumerate(zip(mi.per_dim, weights.w)):
        print(f"{i},{v},{w}")
    return 0


def _cmd_bound(args):
    rates = NoiseRatePair(args.e1, args.e2)
    out = {
        "epsilon": kl_order_gap(rates),
        "practical_gap": practical_gap(rates, args.beta_lo, args.beta_hi),
        "beta_range": [args.beta_lo, args.beta_hi],
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _cmd_inject_noise(args):
    if args.scheme != "dirichlet" and (args.e is not None or args.r is not None):
        raise DataError("--e and --r apply only to --scheme dirichlet")
    data = load_dataset(args.input, k=args.k)
    if data.clean_labels is None:
        # treat the noisy column as clean ground truth to corrupt
        data = replace(data, clean_labels=data.noisy_labels)
    if args.scheme == "dirichlet":
        if args.e is None and args.r is None:
            raise DataError("the dirichlet scheme needs --e or --r")
        e = args.e if args.e is not None else avg_noise_rate_from_r(args.r, data.k)
        scheme = NoiseScheme("dirichlet", avg_rate=e, seed=args.seed)
    elif args.scheme == "symmetric":
        scheme = NoiseScheme("binary", e1=args.e1, e2=args.e1, seed=args.seed)
    else:
        scheme = NoiseScheme("binary", e1=args.e1, e2=args.e2, seed=args.seed)
    t = build_transition(scheme, data.k)
    noisy = inject_noise(data, t, seed=args.seed)
    save_dataset(noisy, args.output)
    save_json(t, args.output + ".true_t.json")
    print(f"wrote {args.output} and {args.output}.true_t.json")
    return 0


def _cmd_eval(args):
    est = TransitionMatrix.load(args.estimated)
    true_t = TransitionMatrix.load(args.true)
    print(estimation_error(true_t, est))
    return 0


def _cmd_train(args):
    train = load_dataset(args.train, k=args.k)
    test = load_dataset(args.test, k=args.k)
    t = None
    if args.mode == "forward":
        if args.t is None:
            raise DataError("forward mode requires --t")
        t = TransitionMatrix.load(args.t)
    res = train_linear(train, test, t=t, epochs=args.epochs,
                       step_size=args.step_size, seed=args.seed)
    json.dump({"last": res.last_epoch_accuracy, "best": res.best_epoch_accuracy,
               "best_epoch": res.best_epoch, "mode": res.loss_mode},
              sys.stdout, indent=2)
    print()
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tmest",
                                description="Noise transition matrix estimation")
    sub = p.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True)
    data.add_argument("--k", type=int, default=None)
    mi = argparse.ArgumentParser(add_help=False)
    mi.add_argument("--bins", type=int, default=EstimatorConfig.bins)
    mi.add_argument("--activation", default=EstimatorConfig.activation, choices=ACTIVATIONS)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=EstimatorConfig.seed)

    pe = sub.add_parser("estimate", parents=[data, mi, seed],
                        help="run the full estimation pipeline")
    pe.add_argument("--variant", default=EstimatorConfig.variant, choices=VARIANTS)
    pe.add_argument("--output", default=None)
    pe.add_argument("--true-t", dest="true_t", default=None)
    pe.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters,
                    help="EM iteration cap per solver start")
    pe.add_argument("--tolerance", type=float, default=OptimizerConfig.tolerance,
                    help="EM stops at a log-likelihood gain <= TOLERANCE / N")
    pe.set_defaults(func=_cmd_estimate)

    pm = sub.add_parser("mi", parents=[data, mi],
                        help="per-dimension MI and weights as CSV")
    pm.add_argument("--divergence", default="tv", choices=DIVERGENCES)
    pm.set_defaults(func=_cmd_mi)

    pb = sub.add_parser("bound", help="KL order-preservation bounds as JSON")
    pb.add_argument("--e1", type=float, required=True)
    pb.add_argument("--e2", type=float, required=True)
    pb.add_argument("--beta-lo", type=float, default=1 / 6)
    pb.add_argument("--beta-hi", type=float, default=5 / 6)
    pb.set_defaults(func=_cmd_bound)

    pn = sub.add_parser("inject-noise", parents=[data, seed],
                        help="synthesize noisy labels")
    pn.add_argument("--output", required=True)
    pn.add_argument("--scheme", required=True,
                    choices=["symmetric", "asymmetric", "dirichlet"])
    pn.add_argument("--e1", type=float, default=0.0)
    pn.add_argument("--e2", type=float, default=0.0)
    rate = pn.add_mutually_exclusive_group()
    rate.add_argument("--e", type=float, default=None)
    rate.add_argument("--r", type=float, default=None)
    pn.set_defaults(func=_cmd_inject_noise)

    pv = sub.add_parser("eval", help="estimation error between matrices")
    pv.add_argument("--estimated", required=True)
    pv.add_argument("--true", required=True)
    pv.set_defaults(func=_cmd_eval)

    pt = sub.add_parser("train", parents=[seed], help="downstream linear-model check")
    pt.add_argument("--train", required=True)
    pt.add_argument("--test", required=True)
    pt.add_argument("--t", default=None)
    pt.add_argument("--mode", default="plain", choices=["plain", "forward"])
    pt.add_argument("--epochs", type=int, default=500)
    pt.add_argument("--step-size", type=float, default=0.5)
    pt.add_argument("--k", type=int, default=None)
    pt.set_defaults(func=_cmd_train)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        parser.exit(2, f"tmest {args.command}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
