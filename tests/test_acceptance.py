"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test prints a single ``[acceptance] <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure). The real-dataset reproduction test skips
unless the datasets are present under ``datasets/`` (see README for the
expected layout).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mmce import synthetic
from mmce.baselines import dawid_skene_em, majority_vote
from mmce.cli import main
from mmce.confusion import Mode
from mmce.data import GoldLabels, load_gold, load_labels
from mmce.evaluation import calibration_bins, error_rate, mean_square_error
from mmce.selection import CVConfig, cross_validate, resolve_hyperparams
from mmce.solver import (
    HyperParams,
    fit,
    kl_identity_check,
    m_step_gradients,
    penalized_likelihood,
    polish_stationary_point,
)

DATASET_ROOT = Path(__file__).resolve().parent.parent / "datasets"


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _fd_gradients(lm, q, wp, ip, hyper, eps=1e-5):
    def val():
        return penalized_likelihood(lm, q, wp, ip, hyper)

    grads = []
    for tensor in (wp, ip):
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            fp = val()
            tensor[idx] = orig - eps
            fm = val()
            tensor[idx] = orig
            g[idx] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def test_1_gradient_correctness():
    t0 = time.time()
    penalties = [(0.0, 0.0), (0.5, 0.5), (2.0, 0.5), (0.0, 2.0), (2.0, 2.0), (0.5, 2.0)]
    worst = 0.0
    for seed in range(50):
        lm = synthetic.random_instance(seed)
        mode = Mode.ORDINAL if seed % 2 else Mode.MULTICLASS
        alpha, beta = penalties[seed % len(penalties)]
        hyper = HyperParams(alpha=alpha, beta=beta, mode=mode)
        rng = np.random.default_rng(seed + 10_000)
        from mmce.confusion import init_params
        wp = rng.normal(scale=0.5,
                        size=init_params(mode, lm.num_workers, lm.num_classes).shape)
        ip = rng.normal(scale=0.5,
                        size=init_params(mode, lm.num_items, lm.num_classes).shape)
        q = rng.random((lm.num_items, lm.num_classes))
        q /= q.sum(axis=1, keepdims=True)
        gw, gi = m_step_gradients(lm, q, wp, ip, hyper)
        fw, fi = _fd_gradients(lm, q, wp, ip, hyper)
        for g, f in ((gw, fw), (gi, fi)):
            rel = np.max(np.abs(g - f)) / max(1.0, np.max(np.abs(f)))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    _report("1 gradient-correctness", worst < 1e-6 and elapsed < 30,
            f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_2_objective_monotonicity():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        lm = synthetic.random_instance(seed)
        hyper = HyperParams(alpha=0.5, beta=0.5, max_outer_iters=30)
        result = fit(lm, hyper)
        trace = np.array(result.objective_trace)
        if len(trace) > 1:
            worst = max(worst, float(np.max(-np.diff(trace))))
    elapsed = time.time() - t0
    _report("2 objective-monotonicity", worst <= 1e-9 and elapsed < 60,
            f"(worst decrease {worst:.2e}, {elapsed:.1f}s)")


def test_3_dawid_skene_reduction():
    # tau clamped, no regularization, uniform prior, shared majority-vote
    # initialization, and an exact M-step: both solvers then walk the same
    # trajectory, so compare after the same number of alternations
    worst = 0.0
    for seed in range(20):
        K = 2 + seed % 2
        conf = np.stack([synthetic.diagonal_confusion(K, 0.75)] * 4)
        lm, _ = synthetic.sample_labels(4, 12, K, 3, conf, seed=seed)
        hyper = HyperParams(alpha=0.0, beta=0.0, clamp_item_params=True,
                            exact_m_step=True, max_outer_iters=15, tol=1e-300)
        result = fit(lm, hyper)
        ds_posterior, _, _ = dawid_skene_em(lm, max_iters=15, tol=1e-300,
                                            smoothing=0.0, uniform_prior=True)
        worst = max(worst, float(np.max(np.abs(result.posterior - ds_posterior))))
    _report("3 dawid-skene-reduction", worst < 1e-3, f"(max diff {worst:.2e})")


def test_4_binary_mode_coincidence():
    worst = 0.0
    for seed in range(5):
        conf = np.stack([synthetic.diagonal_confusion(2, 0.7)] * 6)
        lm, _ = synthetic.sample_labels(6, 20, 2, 4, conf, seed=seed)
        results = {}
        for mode in (Mode.MULTICLASS, Mode.ORDINAL):
            hyper = HyperParams(alpha=1.0, beta=1.0, mode=mode,
                                max_outer_iters=100, tol=1e-10)
            results[mode] = fit(lm, hyper).posterior
        worst = max(worst, float(np.max(np.abs(results[Mode.MULTICLASS]
                                               - results[Mode.ORDINAL]))))
    _report("4 binary-mode-coincidence", worst < 1e-8, f"(max diff {worst:.2e})")


def test_5_kl_identity_at_convergence():
    worst = 0.0
    for seed in range(5):
        conf = np.array([synthetic.diagonal_confusion(2, 0.7)] * 8)
        lm, _ = synthetic.sample_labels(8, 16, 2, 8, conf, seed)
        hyper = HyperParams(alpha=0.0, beta=0.0, max_outer_iters=300, tol=1e-10)
        result = polish_stationary_point(lm, fit(lm, hyper), hyper)
        worst = max(worst, kl_identity_check(lm, result, hyper))
    _report("5 kl-identity", worst < 1e-6, f"(worst residual {worst:.2e})")


def test_6_planted_model_recovery():
    t0 = time.time()
    m, n, K, lpi = 30, 200, 3, 10
    conf = np.stack([synthetic.diagonal_confusion(K, 0.8)] * m)
    mmce_errors, mv_errors = [], []
    for seed in range(20):
        lm, gold = synthetic.sample_labels(m, n, K, lpi, conf, seed=seed)
        alpha, beta = resolve_hyperparams(1.0, lm)
        result = fit(lm, HyperParams(alpha=alpha, beta=beta))
        mmce_errors.append(error_rate(result.predicted, gold))
        _, mv_pred = majority_vote(lm)
        mv_errors.append(error_rate(mv_pred, gold))
    mmce_mean, mv_mean = float(np.mean(mmce_errors)), float(np.mean(mv_errors))
    elapsed = time.time() - t0
    _report("6 planted-recovery",
            mmce_mean < mv_mean and mmce_mean < 0.05 and elapsed < 120,
            f"(mmce {100 * mmce_mean:.2f}% < mv {100 * mv_mean:.2f}%, {elapsed:.1f}s)")


def test_7_calibration_pattern():
    # noisier planted model so every confidence bucket is populated; pool the
    # fits over several seeds before binning
    m, n, K, lpi = 30, 800, 3, 5
    conf = np.stack([synthetic.diagonal_confusion(K, 0.65)] * m)
    posteriors, preds, truth = [], [], {}
    offset = 0
    for seed in range(5):
        lm, gold = synthetic.sample_labels(m, n, K, lpi, conf, seed=seed)
        alpha, beta = resolve_hyperparams(0.5, lm)
        result = fit(lm, HyperParams(alpha=alpha, beta=beta))
        posteriors.append(result.posterior)
        preds.append(result.predicted)
        truth.update({offset + j: lab for j, lab in gold.by_item.items()})
        offset += n
    bins = calibration_bins(np.vstack(posteriors), GoldLabels(truth),
                            np.concatenate(preds))
    rates = [b.error_rate for b in bins if b.count > 0]
    ok = all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    _report("7 calibration-pattern", ok,
            "(bin errors " + ", ".join(f"{r:.3f}" for r in rates) + ")")


PUBLISHED_TARGETS = {
    # dataset dir -> (mode, metric target, tolerance)
    "bluebirds": (Mode.MULTICLASS, 0.0833, 0.02),
    "rte": (Mode.MULTICLASS, 0.0750, 0.02),
    "temp": (Mode.MULTICLASS, 0.0563, 0.02),
    "web": (Mode.ORDINAL, 0.384, 0.05),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_TARGETS))
def test_8_real_dataset_reproduction(name):
    root = DATASET_ROOT / name
    if not (root / "labels.csv").exists() or not (root / "gold.csv").exists():
        print(f"[acceptance] 8 real-dataset {name}: SKIP (no files under {root})")
        pytest.skip(f"dataset not supplied: {root}")
    mode, target, tol = PUBLISHED_TARGETS[name]
    # class count from the files themselves (labels are 1-based on disk)
    raw = [line.split(",") for line in (root / "labels.csv").read_text().splitlines()
           if line and not line.startswith("worker")]
    num_classes = max(int(r[2]) for r in raw)
    labels = load_labels(root / "labels.csv", num_classes, label_base=1)
    gold = load_gold(root / "gold.csv", labels.item_ids, num_classes, label_base=1)
    config = CVConfig(mode=mode, seed=42)
    report = cross_validate(labels, config)
    result = fit(labels, config.hyper(report.alpha, report.beta))
    if mode == Mode.ORDINAL:
        value = mean_square_error(result.predicted, gold)
    else:
        value = error_rate(result.predicted, gold)
    _report(f"8 real-dataset {name}", abs(value - target) <= tol,
            f"(got {value:.4f}, target {target:.4f} +/- {tol})")


def test_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(0)
    rows = [f"w{i},i{j},{rng.integers(3)}" for i in range(6) for j in range(15)
            if rng.random() < 0.8]
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(rows) + "\n")
    outs = []
    for run in range(2):
        out = tmp_path / f"post{run}.tsv"
        params = tmp_path / f"params{run}.tsv"
        trace = tmp_path / f"trace{run}.csv"
        code = main(["aggregate", "--labels", str(labels), "--classes", "3",
                     "--gamma", "1", "--seed", "7", "--out", str(out),
                     "--params-out", str(params), "--trace", str(trace)])
        assert code in (0, 1)
        outs.append(out.read_bytes() + params.read_bytes() + trace.read_bytes())
    ok = outs[0] == outs[1]
    _report("9 cli-determinism", ok, "(byte-identical reruns)")
