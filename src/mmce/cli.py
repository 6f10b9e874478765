"""Command-line entry point: dataset stats, aggregation, model selection,
and evaluation.

Exit codes: 0 success, 1 solver did not converge (outputs still written),
2 input or usage errors, 3 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

import numpy as np

from . import baselines, data, selection, solver
from .confusion import Mode, RegularizerVariant, write_params
from .evaluation import evaluate

log = logging.getLogger("mmce")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _load_labels(args) -> data.LabelMatrix:
    return data.load_labels(args.labels, args.classes, args.label_base)


def _add_common(p):
    p.add_argument("--labels", required=True, help="labels CSV (worker,item,label)")
    p.add_argument("--classes", type=int, required=True, help="number of classes K")
    p.add_argument("--label-base", type=int, choices=(0, 1), default=0)


def _add_solver_flags(p):
    defaults = solver.HyperParams
    p.add_argument("--mode", choices=[m.value for m in Mode], default=defaults.mode.value)
    p.add_argument("--variant", choices=[v.value for v in RegularizerVariant],
                   default=defaults.variant.value)
    p.add_argument("--max-iters", type=int, default=defaults.max_outer_iters,
                   help="outer iterations after which a fit stops unconverged "
                        "(exit 1 for aggregate and select --fit-final)")
    p.add_argument("--tol", type=float, default=defaults.tol,
                   help="a fit has converged once an outer iteration (M-step, then "
                        "E-step) moves the objective by less than tol * max(|previous|, 1e-300)")
    p.add_argument("--seed", type=int, default=selection.CVConfig.seed,
                   help="CV fold seed for select; the fit itself is deterministic")


def _solver_settings(args) -> dict:
    """The solver flags as keyword arguments of HyperParams and CVConfig."""
    return dict(mode=args.mode, variant=args.variant, max_outer_iters=args.max_iters, tol=args.tol)


def _keep_freed_heap() -> None:
    """On glibc, keep freed heap memory in the process until it exits.

    Each model pass of a fit allocates and frees (K, K, L) temporaries larger
    than glibc's 128 KiB starting mmap threshold, so glibc hands them back to
    the kernel after the pass and the next pass faults them in again: 4.2k to
    4.7k minor faults per fit of 20k labels and 3 classes (glibc 2.36), 3 with
    both thresholds pinned. Peak memory is unchanged; RSS stays at its
    high-water mark. Only the commands that fit call this, never the library,
    and it does nothing off Linux or where glibc's `mallopt` is missing or
    refuses. Either threshold alone makes faults worse, so the trim threshold
    is set only once the mmap one took.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 1 << 28) == 1:  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD


def cmd_stats(args) -> int:
    labels = _load_labels(args)
    gold = (data.load_gold(args.gold, labels.item_ids, labels.num_classes,
                           args.label_base) if args.gold else None)
    s = data.summarize(labels, gold)
    print(f"classes            {s.num_classes}")
    print(f"items              {s.num_items}")
    print(f"workers            {s.num_workers}")
    print(f"labels             {s.num_labels}")
    print(f"labels per worker  {s.labels_per_worker:.2f}")
    print(f"labels per item    {s.labels_per_item:.2f}")
    if s.avg_worker_error is not None:
        print(f"avg worker error   {100 * s.avg_worker_error:.2f}%")
    return EXIT_OK


def _aggregate_hyper(args) -> solver.HyperParams:
    """The mmce settings, checked before any input is read. With --gamma,
    alpha and beta are 0 until the labels resolve them."""
    have_ab = args.alpha is not None or args.beta is not None
    if args.gamma is not None and have_ab:
        raise UsageError("give either --gamma or --alpha/--beta, not both")
    if args.gamma is not None:
        selection._check_gamma(args.gamma)
    elif args.alpha is None or args.beta is None:
        raise UsageError("mmce needs --gamma, or both --alpha and --beta")
    return solver.HyperParams(alpha=args.alpha or 0.0, beta=args.beta or 0.0,
                              **_solver_settings(args))


def cmd_aggregate(args) -> int:
    # refuse an output the method does not write, or a penalty it does not
    # read, before any input is read
    if args.params_out and args.method != "mmce":
        raise UsageError(f"--params-out is written by --method mmce only, not {args.method}")
    if args.trace and args.method == "mv":
        raise UsageError("--trace is written by --method mmce or ds, not mv")
    for flag in ("alpha", "beta", "gamma"):
        if args.method != "mmce" and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} is read by --method mmce only, not {args.method}")
    hyper = _aggregate_hyper(args) if args.method == "mmce" else None
    labels = _load_labels(args)
    data._check_posterior_ids(labels.item_ids)  # before any fit: the ids must be writable
    exit_code = EXIT_OK
    trace = None  # the --trace columns: iteration, phase, objective
    if args.method == "mv":
        posterior, predicted = baselines.majority_vote(labels)
    elif args.method == "ds":
        posterior, params, loglik = baselines.dawid_skene_em(labels)
        predicted = np.argmax(posterior, axis=1)
        trace = (np.arange(1, len(loglik) + 1), np.full(len(loglik), "em"),
                 np.array(loglik))
    else:  # mmce; argparse refuses any other method
        if args.gamma is not None:
            hyper.alpha, hyper.beta = selection.resolve_hyperparams(args.gamma, labels)
            print(f"resolved alpha={hyper.alpha:g} beta={hyper.beta:g} from gamma={args.gamma:g}")
        _keep_freed_heap()
        result = solver.fit(labels, hyper)
        posterior, predicted = result.posterior, result.predicted
        # the trace is the initial value, then one (m, e) pair per iteration
        objective = np.array(result.objective_trace)
        trace = (np.arange(1, len(objective) + 1) // 2,
                 np.array(["init"] + ["m", "e"] * result.iterations), objective)
        if not result.converged:
            log.warning("solver did not converge in %d iterations", result.iterations)
            exit_code = EXIT_NOT_CONVERGED
    data.write_posterior(args.out, labels, posterior, predicted)
    if args.params_out:
        write_params(args.params_out, result.worker_params, result.item_params, hyper.mode)
    if args.trace:
        data._write_rows(args.trace, "iter,phase,objective\n", "%s,%s,%.9f\n", trace)
    return exit_code


def cmd_select(args) -> int:
    grid = tuple(float(g) for g in args.grid.split(","))
    config = selection.CVConfig(  # checks every setting before any input is read
        folds=args.folds, gamma_grid=grid, seed=args.seed,
        heldout_scoring=args.heldout_scoring, **_solver_settings(args))
    labels = _load_labels(args)
    if args.fit_final:  # refuse ids the posterior file cannot hold before any fit
        data._check_posterior_ids(labels.item_ids)
    _keep_freed_heap()  # before selection, so that forked fold workers inherit it
    if args.gold:
        gold = data.load_gold(args.gold, labels.item_ids, labels.num_classes,
                              args.label_base)
        report = selection.validation_select(labels, gold, config)
    else:
        report = selection.cross_validate(labels, config)
    if report.unconverged_fits:
        log.warning("%d of the %d fits that scored the grid did not converge in %d "
                    "iterations; their scores are used as they are",
                    report.unconverged_fits,
                    sum(len(scores) for scores in report.per_fold.values()),
                    config.max_outer_iters)
    if report.at_edge:
        log.warning("selected gamma=%g is at the edge of the grid %g..%g; a better "
                    "value may lie beyond it", report.selected_gamma,
                    min(grid), max(grid))
    if args.out:
        report.write_csv(args.out)
    print(f"selected gamma={report.selected_gamma:g} "
          f"alpha={report.alpha:g} beta={report.beta:g}")
    if args.fit_final:
        hyper = config.hyper(report.alpha, report.beta)
        result = solver.fit(labels, hyper)
        out = (args.out or "mmce") + ".posterior.tsv"
        data.write_posterior(out, labels, result.posterior, result.predicted)
        print(f"final posterior written to {out}")
        if not result.converged:
            log.warning("solver did not converge in %d iterations", result.iterations)
            return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_evaluate(args) -> int:
    item_ids, predicted, posterior = data.read_posterior(args.predictions)
    num_classes = posterior.shape[1]
    gold = data.load_gold(args.gold, item_ids, num_classes, args.label_base)
    report = evaluate(predicted, gold, ordinal=args.mode == "ordinal",
                      posterior=posterior if args.bins else None)
    for line in report.lines():
        print(line)
    if args.out:
        report.write_csv(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmce",
        description="Aggregate noisy crowdsourced labels into per-item posteriors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset summary statistics")
    _add_common(p)
    p.add_argument("--gold", help="optional gold CSV (item,label)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("aggregate", help="aggregate labels into posteriors")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--method", choices=("mmce", "mv", "ds"), default="mmce")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", required=True, help="posterior TSV output path")
    p.add_argument("--params-out", help="fitted params sidecar TSV")
    p.add_argument("--trace", help="objective trace CSV output path")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("select", help="choose regularization strength")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--gold", help="use validation-set selection against this gold CSV")
    p.add_argument("--grid", help="comma-separated gamma grid",
                   default=",".join(f"{g:g}" for g in selection.DEFAULT_GAMMA_GRID))
    p.add_argument("--folds", type=int, default=selection.CVConfig.folds)
    p.add_argument("--heldout-scoring", choices=("marginal", "hard"),
                   default=selection.CVConfig.heldout_scoring)
    p.add_argument("--out", help="CV report CSV output path")
    p.add_argument("--fit-final", action="store_true",
                   help="fit the selected model on all labels afterwards")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="score a posterior file against gold labels")
    p.add_argument("--predictions", required=True, help="posterior TSV")
    p.add_argument("--gold", required=True, help="gold CSV (item,label)")
    p.add_argument("--mode", choices=[m.value for m in Mode], default="multiclass")
    p.add_argument("--label-base", type=int, choices=(0, 1), default=0)
    p.add_argument("--bins", action="store_true", help="add the calibration table")
    p.add_argument("--out", help="machine-readable report CSV")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a fault of the program, not of its input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
