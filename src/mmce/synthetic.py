"""Planted-model simulators used by tests and the experiment scripts."""

from __future__ import annotations

import numpy as np

from .data import GoldLabels, LabelMatrix, from_triples


def diagonal_confusion(K: int, accuracy: float) -> np.ndarray:
    """Row-stochastic confusion with `accuracy` on the diagonal and the rest
    spread evenly off-diagonal."""
    off = (1.0 - accuracy) / (K - 1) if K > 1 else 0.0
    return np.full((K, K), off) + (accuracy - off) * np.eye(K)


def sample_labels(num_workers: int, num_items: int, num_classes: int,
                  labels_per_item: int, confusions: np.ndarray,
                  seed: int):
    """Sample a planted dataset: each item gets `labels_per_item` labels from
    distinct random workers drawing through their confusion rows.

    Returns (LabelMatrix, GoldLabels).
    """
    rng = np.random.default_rng(seed)
    truth = rng.choice(num_classes, size=num_items)
    triples = []
    for j in range(num_items):
        chosen = rng.choice(num_workers, size=min(labels_per_item, num_workers),
                            replace=False)
        for i in chosen:
            lab = rng.choice(num_classes, p=confusions[i, truth[j]])
            triples.append((f"w{i}", f"i{j}", int(lab)))
    labels = from_triples(triples, num_classes,
                          worker_ids=[f"w{i}" for i in range(num_workers)],
                          item_ids=[f"i{j}" for j in range(num_items)])
    gold = GoldLabels({j: int(truth[j]) for j in range(num_items)})
    return labels, gold


def random_instance(seed: int, max_workers: int = 5, max_items: int = 8) -> LabelMatrix:
    """Small random instance for gradient and monotonicity checks: 2 to 4
    classes, each (worker, item) pair labeled with probability 0.7."""
    rng = np.random.default_rng(seed)
    m = rng.integers(2, max_workers + 1)
    n = rng.integers(2, max_items + 1)
    K = int(rng.choice((2, 3, 4)))
    triples = []
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.7:
                triples.append((f"w{i}", f"i{j}", int(rng.integers(K))))
    if not triples:
        triples.append(("w0", "i0", 0))
    return from_triples(triples, K,
                        worker_ids=[f"w{i}" for i in range(m)],
                        item_ids=[f"i{j}" for j in range(n)])
