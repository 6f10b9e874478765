import os

import numpy as np
import pytest

from mmce.data import GoldLabels, from_triples

# Three workers labeling six items on a 3-point scale (stored 1-based in
# files, 0-based internally). True classes: items 0-1 -> 0, 2-3 -> 1, 4-5 -> 2.
THREE_WORKER_ROWS = [
    ("w1", [1, 2, 2, 1, 3, 2]),
    ("w2", [2, 1, 2, 2, 1, 3]),
    ("w3", [1, 1, 1, 2, 2, 3]),
]
THREE_WORKER_TRUTH = [0, 0, 1, 1, 2, 2]


@pytest.fixture
def three_worker_labels():
    triples = [(w, f"i{j + 1}", lab - 1)
               for w, row in THREE_WORKER_ROWS for j, lab in enumerate(row)]
    return from_triples(triples, 3)


@pytest.fixture
def three_worker_gold():
    return GoldLabels(dict(enumerate(THREE_WORKER_TRUTH)))


@pytest.fixture
def three_worker_posterior():
    q = np.zeros((6, 3))
    q[np.arange(6), THREE_WORKER_TRUTH] = 1.0
    return q


def logsumexp(a, axis, keepdims=False):
    """log(sum(exp(a))) along `axis`, shifted by the max: the textbook
    reference for the package's softmax kernel. For fewer than 8 classes
    numpy sums the slices in index order, so it is bit-equal to the kernel's
    log-normalizer."""
    top = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis)


def softmax(a, axis):
    """exp(a - max) / sum along `axis`: the textbook reference for the
    probabilities the softmax kernel leaves in place."""
    e = np.exp(a - np.max(a, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    return path


def assert_no_child_left():
    """Fail if this process has a child, running or ended but not reaped:
    `os.waitpid` raises ChildProcessError only when there is none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
