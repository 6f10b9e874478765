import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

from mmce import selection, solver
from mmce.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main
from mmce.data import read_posterior
from mmce.selection import CVConfig
from mmce.solver import HyperParams

from conftest import THREE_WORKER_ROWS, THREE_WORKER_TRUTH, write_csv


def labels_csv(tmp_path):
    rows = [(w, f"i{j + 1}", lab) for w, row in THREE_WORKER_ROWS
            for j, lab in enumerate(row)]
    return write_csv(tmp_path / "labels.csv", rows)


def gold_csv(tmp_path):
    rows = [(f"i{j + 1}", t + 1) for j, t in enumerate(THREE_WORKER_TRUTH)]
    return write_csv(tmp_path / "gold.csv", rows)


class TestStats:
    def test_prints_summary(self, tmp_path, capsys):
        code = main(["stats", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1",
                     "--gold", str(gold_csv(tmp_path))])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "labels             18" in out
        assert "avg worker error   38.89%" in out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["stats", "--labels", str(tmp_path / "nope.csv"),
                     "--classes", "3"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestAggregate:
    def run(self, tmp_path, *extra):
        out = tmp_path / "post.tsv"
        code = main(["aggregate", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1",
                     "--out", str(out), *extra])
        return code, out

    def test_majority_vote(self, tmp_path):
        code, out = self.run(tmp_path, "--method", "mv")
        assert code == EXIT_OK
        ids, pred, post = read_posterior(out)
        assert list(ids) == [f"i{j + 1}" for j in range(6)]
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-5)

    def test_dawid_skene_with_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = self.run(tmp_path, "--method", "ds", "--trace", str(trace))
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,phase,objective"
        assert len(lines) > 1

    def test_dawid_skene_on_empty_file_is_usage_error(self, tmp_path, capsys):
        empty = write_csv(tmp_path / "empty.csv", [], header="worker,item,label")
        code = main(["aggregate", "--labels", str(empty), "--classes", "3",
                     "--method", "ds", "--out", str(tmp_path / "post.tsv")])
        assert code == EXIT_USAGE
        assert "empty label matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["multiclass", "ordinal"])
    def test_mmce_trace_phases(self, tmp_path, mode):
        trace = tmp_path / "trace.csv"
        code, _ = self.run(tmp_path, "--gamma", "1", "--mode", mode,
                           "--trace", str(trace))
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,phase,objective"
        rows = [line.split(",")[:2] for line in lines[1:]]
        assert len(rows) >= 3 and len(rows) % 2 == 1
        expected = [["0", "init"]] + [[str(it), phase]
                                      for it in range(1, len(rows) // 2 + 1)
                                      for phase in ("m", "e")]
        assert rows == expected

    def test_mmce_gamma_with_params_sidecar(self, tmp_path, capsys):
        params = tmp_path / "params.tsv"
        code, out = self.run(tmp_path, "--gamma", "1", "--params-out", str(params))
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert "resolved alpha=9" in capsys.readouterr().out
        assert params.exists() and out.exists()

    def test_gamma_and_alpha_conflict(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "--gamma", "1", "--alpha", "2", "--beta", "2")
        assert code == EXIT_USAGE
        assert "not both" in capsys.readouterr().err

    def test_alpha_without_beta_rejected(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "--alpha", "2")
        assert code == EXIT_USAGE

    def test_ordinal_centered_rejected(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "--gamma", "1", "--mode", "ordinal",
                           "--variant", "centered")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags, message", [
        (("--gamma", "nan"), "gamma must be positive and finite"),
        (("--gamma", "inf"), "gamma must be positive and finite"),
        (("--alpha", "nan", "--beta", "1"), "alpha and beta must be finite"),
        (("--alpha", "1", "--beta", "inf"), "alpha and beta must be finite"),
        (("--gamma", "1", "--tol", "nan"), "tol must be positive and finite"),
    ])
    def test_non_finite_hyperparameters_rejected(self, tmp_path, capsys, flags, message):
        code, out = self.run(tmp_path, *flags)
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_gamma_names_gamma(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "--gamma", "1e308")
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "gamma=1e+308 is too large" in captured.err
        assert "resolved" not in captured.out
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        code, out = self.run(tmp_path, "--alpha", "0.5", "--beta", "0.5",
                             "--max-iters", "1", "--tol", "1e-15")
        assert code == EXIT_NOT_CONVERGED
        assert out.exists()  # outputs are still written

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = self.run(tmp_path, "--gamma", "1")
        out2 = tmp_path / "post2.tsv"
        main(["aggregate", "--labels", str(labels_csv(tmp_path)),
              "--classes", "3", "--label-base", "1", "--gamma", "1",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSelect:
    def test_cv_writes_report(self, tmp_path, capsys):
        report = tmp_path / "cv.csv"
        code = main(["select", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1",
                     "--grid", "0.5,2", "--folds", "2", "--max-iters", "20",
                     "--out", str(report)])
        assert code == EXIT_OK
        assert "selected gamma=" in capsys.readouterr().out
        assert report.read_text().startswith("gamma,fold,heldout_loglik")

    def test_validation_selection_with_fit_final(self, tmp_path, capsys):
        report = tmp_path / "val.csv"
        code = main(["select", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1",
                     "--gold", str(gold_csv(tmp_path)),
                     "--grid", "1", "--max-iters", "50",
                     "--out", str(report), "--fit-final"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert (tmp_path / "val.csv.posterior.tsv").exists()

    def test_more_folds_than_labels_rejected(self, tmp_path, capsys):
        labels = write_csv(tmp_path / "three.csv", [("a", "i", 1), ("b", "i", 2),
                                                    ("a", "j", 2)])
        report = tmp_path / "cv.csv"
        code = main(["select", "--labels", str(labels), "--classes", "2",
                     "--label-base", "1", "--folds", "5", "--grid", "0.5,4",
                     "--out", str(report)])
        assert code == EXIT_USAGE
        assert "3 labels into 5 folds" in capsys.readouterr().err
        assert not report.exists()

    def test_repeated_grid_value_rejected(self, tmp_path, capsys):
        report = tmp_path / "cv.csv"
        code = main(["select", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1", "--grid", "1,1.0",
                     "--out", str(report)])
        assert code == EXIT_USAGE
        assert "must not repeat" in capsys.readouterr().err
        assert not report.exists()

    def test_overflowing_grid_value_rejected(self, tmp_path, capsys):
        report = tmp_path / "cv.csv"
        code = main(["select", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1", "--grid", "1,1e308",
                     "--out", str(report)])
        assert code == EXIT_USAGE
        assert "gamma=1e+308 is too large" in capsys.readouterr().err
        assert not report.exists()

    def test_bad_grid_rejected(self, tmp_path, capsys):
        code = main(["select", "--labels", str(labels_csv(tmp_path)),
                     "--classes", "3", "--label-base", "1", "--grid", "abc"])
        assert code == EXIT_USAGE


class TestSelectEdgeWarning:
    @staticmethod
    def report(grid, selected):
        return selection.CVReport(gamma_grid=grid, per_fold={g: [0.0] for g in grid},
                                  mean_scores={g: 0.0 for g in grid},
                                  selected_gamma=selected, alpha=1.0, beta=2.0)

    @pytest.mark.parametrize("gold", [False, True])
    @pytest.mark.parametrize("grid,selected,warned", [
        ("0.25,1,4", 0.25, True), ("0.25,1,4", 4.0, True), ("0.25,1,4", 1.0, False),
        ("2", 2.0, False)])
    def test_one_warning_at_either_edge(self, tmp_path, monkeypatch, caplog, capsys,
                                        gold, grid, selected, warned):
        report = self.report(tuple(float(g) for g in grid.split(",")), selected)
        name = "validation_select" if gold else "cross_validate"
        monkeypatch.setattr(selection, name, lambda *args: report)
        extra = ["--gold", str(gold_csv(tmp_path))] if gold else []
        code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                     "--label-base", "1", "--grid", grid, *extra])
        assert code == EXIT_OK
        assert capsys.readouterr().out == f"selected gamma={selected:g} alpha=1 beta=2\n"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ([f"selected gamma={selected:g} is at the edge of the grid "
                             "0.25..4; a better value may lie beyond it"] if warned else [])

    def test_warning_is_one_stderr_line(self, tmp_path):
        # any pick from a two-value grid is at an edge
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mmce.cli", "select", "--labels", str(labels_csv(tmp_path)),
             "--classes", "3", "--label-base", "1", "--grid", "0.5,2", "--folds", "2",
             "--max-iters", "20"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("WARNING selected gamma=")
        assert lines[0].endswith("is at the edge of the grid 0.5..2; a better value "
                                 "may lie beyond it")
        assert proc.stdout.startswith("selected gamma=")


@pytest.mark.parametrize("command", ["stats", "aggregate", "select"])
@pytest.mark.parametrize("classes", ["0", "1", "-3"])
def test_fewer_than_two_classes_is_usage_error(tmp_path, capsys, command, classes):
    extra = ["--gamma", "1", "--out", str(tmp_path / "post.tsv")] if command == "aggregate" else []
    code = main([command, "--labels", str(labels_csv(tmp_path)), "--classes", classes,
                 *extra])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 2 classes, got {classes}\n"
    assert not (tmp_path / "post.tsv").exists()


class Captured(Exception):
    pass


def test_parsed_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    # every solver and CV flag left out must give the HyperParams/CVConfig default
    seen = {}

    def capture(key):
        def stop(_labels, settings):
            seen[key] = settings
            raise Captured
        return stop

    monkeypatch.setattr(solver, "fit", capture("hyper"))
    monkeypatch.setattr(selection, "cross_validate", capture("config"))
    common = ["--labels", str(labels_csv(tmp_path)), "--classes", "3", "--label-base", "1"]
    with pytest.raises(Captured):
        main(["aggregate", *common, "--alpha", "2", "--beta", "3",
              "--out", str(tmp_path / "post.tsv")])
    assert seen["hyper"] == HyperParams(alpha=2.0, beta=3.0)
    with pytest.raises(Captured):
        main(["select", *common])
    assert seen["config"] == CVConfig()


class TestEvaluate:
    def test_end_to_end(self, tmp_path, capsys):
        post = tmp_path / "post.tsv"
        main(["aggregate", "--labels", str(labels_csv(tmp_path)),
              "--classes", "3", "--label-base", "1", "--method", "ds",
              "--out", str(post)])
        capsys.readouterr()
        report = tmp_path / "eval.csv"
        code = main(["evaluate", "--predictions", str(post),
                     "--gold", str(gold_csv(tmp_path)), "--label-base", "1",
                     "--bins", "--out", str(report)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "error rate" in out
        assert report.read_text().startswith("metric,value\n")

    def test_posterior_with_byte_order_mark(self, tmp_path, capsys):
        post = tmp_path / "p.tsv"
        post.write_bytes(b"\xef\xbb\xbfitem\tpredicted\tp0\tp1\na\t0\t0.9\t0.1\n")
        gold = write_csv(tmp_path / "g.csv", [("a", 0)])
        code = main(["evaluate", "--predictions", str(post), "--gold", str(gold)])
        assert code == EXIT_OK
        assert "error rate" in capsys.readouterr().out

    def test_unknown_gold_item_is_usage_error(self, tmp_path, capsys):
        post = tmp_path / "post.tsv"
        main(["aggregate", "--labels", str(labels_csv(tmp_path)),
              "--classes", "3", "--label-base", "1", "--method", "mv",
              "--out", str(post)])
        bad = write_csv(tmp_path / "bad.csv", [("missing", 1)])
        code = main(["evaluate", "--predictions", str(post),
                     "--gold", str(bad), "--label-base", "1"])
        assert code == EXIT_USAGE


def test_import_does_not_load_scipy():
    # scipy is imported lazily, by the L-BFGS paths only; loading it at import
    # time would slow the start-up of every command
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, mmce, mmce.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
