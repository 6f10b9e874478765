import argparse
import ctypes
import errno
import os
import platform
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path
from select import select as select_fds

import numpy as np

import pytest

from mmce import baselines, cli, data, selection, solver, synthetic
from mmce.baselines import dawid_skene_em
from mmce.cli import (EXIT_INTERNAL, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, build_parser,
                      main)
from mmce.data import read_posterior
from mmce.selection import CVConfig
from mmce.solver import HyperParams, fit

from conftest import THREE_WORKER_ROWS, THREE_WORKER_TRUTH, assert_no_child_left, write_csv


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

    def test_gamma_on_empty_file_is_usage_error(self, tmp_path, capsys):
        empty = write_csv(tmp_path / "empty.csv", [], header="worker,item,label")
        out = tmp_path / "post.tsv"
        code = main(["aggregate", "--labels", str(empty), "--classes", "3",
                     "--gamma", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("error: cannot resolve hyperparameters "
                                           "on an empty dataset\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("method,mode", [("ds", None), ("mmce", "multiclass"),
                                             ("mmce", "ordinal")])
    def test_trace_bytes_equal_one_write_per_row(self, tmp_path, monkeypatch,
                                                 method, mode):
        # the objective trace as the per-row loop that `_write_rows` replaced wrote it
        results = []

        def recorded(fn):
            def wrapped(*args):
                results.append(fn(*args))
                return results[-1]
            return wrapped

        monkeypatch.setattr(solver, "fit", recorded(fit))
        monkeypatch.setattr(baselines, "dawid_skene_em", recorded(dawid_skene_em))
        trace = tmp_path / "trace.csv"
        extra = ["--gamma", "1", "--mode", mode] if method == "mmce" else []
        code, _ = self.run(tmp_path, "--method", method, "--trace", str(trace), *extra)
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        if method == "ds":
            trace_rows = [(i + 1, "em", v) for i, v in enumerate(results[0][2])]
        else:
            phases = ["init"] + ["m", "e"] * results[0].iterations
            trace_rows = [((i + 1) // 2, phase, v) for i, (phase, v) in
                          enumerate(zip(phases, results[0].objective_trace))]
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iter,phase,objective\n")
            for it, phase, v in trace_rows:
                fh.write(f"{it},{phase},{v:.9f}\n")
        assert trace.read_bytes() == want.read_bytes()

    def test_gamma_and_alpha_conflict(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "--gamma", "1", "--alpha", "2", "--beta", "2")
        assert code == EXIT_USAGE
        assert "not both" in capsys.readouterr().err

    def test_alpha_without_beta_rejected(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "--alpha", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method,flag,message", [
        ("mv", "--params-out", "--params-out is written by --method mmce only, not mv"),
        ("ds", "--params-out", "--params-out is written by --method mmce only, not ds"),
        ("mv", "--trace", "--trace is written by --method mmce or ds, not mv"),
    ], ids=["mv-params-out", "ds-params-out", "mv-trace"])
    def test_output_the_method_does_not_write_is_refused(self, tmp_path, capsys,
                                                        monkeypatch, method, flag, message):
        labels = labels_csv(tmp_path)
        monkeypatch.setattr(data, "load_labels",
                            lambda *a: pytest.fail("labels read before the refusal"))
        code, _ = self.run(tmp_path, "--method", method, flag, str(tmp_path / "extra"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [labels]

    @pytest.mark.parametrize("method,flags,first", [
        ("mv", ("--gamma", "1"), "--gamma"), ("ds", ("--gamma", "1"), "--gamma"),
        ("mv", ("--alpha", "1", "--beta", "1"), "--alpha"),
        ("ds", ("--beta", "1", "--gamma", "1"), "--beta"),
    ], ids=["mv-gamma", "ds-gamma", "mv-alpha-beta", "ds-beta-gamma"])
    def test_penalty_the_method_does_not_read_is_refused(self, tmp_path, capsys,
                                                         monkeypatch, method, flags, first):
        labels = labels_csv(tmp_path)
        monkeypatch.setattr(data, "load_labels",
                            lambda *a: pytest.fail("labels read before the refusal"))
        code, _ = self.run(tmp_path, "--method", method, *flags)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: {first} is read by --method mmce "
                                           f"only, not {method}\n")
        assert sorted(tmp_path.iterdir()) == [labels]

    def test_bad_solver_setting_prints_no_resolved_gamma(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "--gamma", "1", "--max-iters", "0")
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: iteration counts must be >= 1\n"
        assert not out.exists()

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


@pytest.mark.parametrize("command,posterior", [
    (["aggregate", "--method", "mv"], "t.tsv"), (["aggregate", "--method", "ds"], "t.tsv"),
    (["aggregate", "--method", "mmce", "--gamma", "1"], "t.tsv"),
    (["select", "--folds", "2", "--grid", "1", "--fit-final"], "t.tsv.posterior.tsv")],
    ids=["mv", "ds", "mmce", "select"])
def test_item_id_with_a_tab_leaves_no_posterior(tmp_path, capsys, command, posterior):
    labels = tmp_path / "t.csv"
    labels.write_text("w1,it\tem,1\nw2,it\tem,1\nw1,b,0\nw2,b,0\n")
    code = main([*command, "--labels", str(labels), "--classes", "2",
                 "--out", str(tmp_path / "t.tsv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == ("error: item id 'it\\tem' has a tab, which a "
                                       "posterior file cannot hold\n")
    assert not (tmp_path / posterior).exists()


def test_item_id_with_a_tab_leaves_no_sidecar(tmp_path, capsys):
    labels = tmp_path / "t.csv"
    labels.write_text("w1,it\tem,1\nw2,it\tem,1\nw1,b,0\nw2,b,0\n")
    code = main(["aggregate", "--labels", str(labels), "--classes", "2", "--gamma", "1",
                 "--out", str(tmp_path / "t.tsv"), "--params-out", str(tmp_path / "p.tsv"),
                 "--trace", str(tmp_path / "trace.csv")])
    assert code == EXIT_USAGE
    assert "has a tab" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_select_refuses_a_tabbed_item_id_before_selecting(tmp_path, capsys, monkeypatch):
    labels = tmp_path / "t.csv"
    labels.write_text("w1,it\tem,1\nw2,it\tem,1\nw1,b,0\nw2,b,0\n")
    monkeypatch.setattr(selection, "cross_validate", lambda *a, **k: pytest.fail("CV ran"))
    code = main(["select", "--labels", str(labels), "--classes", "2", "--fit-final",
                 "--out", str(tmp_path / "cv.csv")])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "selected gamma" not in out and "has a tab" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_aggregate_refuses_a_tabbed_item_id_before_fitting(tmp_path, capsys, monkeypatch):
    labels = tmp_path / "t.csv"
    labels.write_text("w1,it\tem,1\nw2,it\tem,1\nw1,b,0\nw2,b,0\n")
    monkeypatch.setattr(solver, "fit", lambda *a, **k: pytest.fail("fit ran"))
    code = main(["aggregate", "--labels", str(labels), "--classes", "2", "--gamma", "1",
                 "--out", str(tmp_path / "t.tsv")])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "has a tab" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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

    def test_final_fit_that_did_not_converge_is_warned(self, tmp_path, caplog, capsys):
        code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                     "--label-base", "1", "--grid", "1", "--folds", "2", "--max-iters", "1",
                     "--out", str(tmp_path / "cv.csv"), "--fit-final"])
        assert code == EXIT_NOT_CONVERGED
        assert "final posterior written to" in capsys.readouterr().out
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["2 of the 2 fits that scored the grid did not converge in 1 "
                            "iterations; their scores are used as they are",
                            "solver did not converge in 1 iterations"]

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


class TestSelectOnSeveralCPUs:
    @pytest.mark.parametrize("gold", [False, True])
    def test_outputs_equal_the_one_cpu_outputs(self, tmp_path, monkeypatch, capsys, gold):
        extra = ["--gold", str(gold_csv(tmp_path))] if gold else []
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(selection, "_usable_cpus", lambda cpus=cpus: cpus)
            report = tmp_path / f"cv{cpus}.csv"
            code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                         "--label-base", "1", "--grid", "0.25,1,4", "--folds", "3",
                         "--out", str(report), "--fit-final", *extra])
            outputs.append((code, report.read_bytes(),
                            Path(f"{report}.posterior.tsv").read_bytes(),
                            capsys.readouterr().out.replace(report.name, "cv.csv")))
        assert outputs[0] == outputs[1]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_raising_fold_fit_leaves_no_worker(self, tmp_path, monkeypatch, capsys, cpus):
        monkeypatch.setattr(selection, "_usable_cpus", lambda: cpus)
        labels = data.load_labels(labels_csv(tmp_path), 3, 1)
        failing_alpha, _ = selection.resolve_hyperparams(1.0, labels)
        fit = solver.fit

        def fit_or_raise(labels, hyper):
            # of the two folds' training sets, one lacks label 0 (worker 0, item 0)
            has_first = np.any((labels.workers == 0) & (labels.items == 0))
            if hyper.alpha == failing_alpha and not has_first:
                raise ValueError("fold fit failed on purpose")
            return fit(labels, hyper)

        monkeypatch.setattr(solver, "fit", fit_or_raise)
        code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                     "--label-base", "1", "--grid", "0.5,1,2", "--folds", "2",
                     "--out", str(tmp_path / "cv.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: fold fit failed on purpose\n"
        assert_no_child_left()
        assert not (tmp_path / "cv.csv").exists()

    def test_a_fit_that_raises_in_a_worker_reads_as_on_one_cpu(self, tmp_path, monkeypatch,
                                                               capsys):
        # on 2 CPUs only the worker's fits raise, and the caller's wait until
        # one has, so that the worker surely takes a fit; on 1 CPU every fit raises
        caller, (raised, raising) = os.getpid(), os.pipe()
        fit = solver.fit

        def fit_or_raise(labels, hyper):
            if os.getpid() != caller:
                os.write(raising, b"x")
            elif selection._usable_cpus() > 1:
                assert select_fds([raised], [], [], 30)[0]
                return fit(labels, hyper)
            raise ValueError("fold fit failed on purpose")

        monkeypatch.setattr(solver, "fit", fit_or_raise)
        outcomes = []
        try:
            for cpus in (1, 2):
                monkeypatch.setattr(selection, "_usable_cpus", lambda cpus=cpus: cpus)
                code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes",
                             "3", "--label-base", "1", "--grid", "0.5,1", "--folds", "2"])
                outcomes.append((code, capsys.readouterr().err))
        finally:
            os.close(raised)
            os.close(raising)
        assert outcomes == [(EXIT_USAGE, "error: fold fit failed on purpose\n")] * 2
        assert_no_child_left()

    def test_a_failed_fork_leaves_the_fits_to_this_process(self, tmp_path, monkeypatch,
                                                           capsys):
        # a host out of processes refuses the fork: select still succeeds, as on one CPU
        args = ["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                "--label-base", "1", "--grid", "0.25,1,4", "--folds", "3"]
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(selection, "_usable_cpus", lambda cpus=cpus: cpus)
            report = tmp_path / f"cv{cpus}.csv"
            assert main([*args, "--out", str(report)]) == EXIT_OK
            reports.append(report.read_bytes())

        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)  # still on 2 CPUs
        failed = tmp_path / "failed.csv"
        assert main([*args, "--out", str(failed)]) == EXIT_OK
        assert reports[0] == reports[1] == failed.read_bytes()
        assert "error" not in capsys.readouterr().err
        assert_no_child_left()

    def test_a_worker_that_dies_makes_select_exit_3(self, tmp_path):
        # in a fresh process, so that a hang fails the test at the timeout; the
        # caller's fits wait until the worker has taken one and died in it
        script = textwrap.dedent("""
            import os, select, sys
            from mmce import cli, selection, solver

            caller, (died, dying) = os.getpid(), os.pipe()
            fit = solver.fit

            def fit_or_die(labels, hyper):
                if os.getpid() != caller:
                    os.write(dying, b"x")
                    os._exit(7)
                assert select.select([died], [], [], 30)[0]
                return fit(labels, hyper)

            solver.fit = fit_or_die
            selection._usable_cpus = lambda: 2
            code = cli.main(sys.argv[1:])
            try:
                os.waitpid(-1, os.WNOHANG)
                code = 99  # a worker outlived the call
            except ChildProcessError:
                pass
            sys.exit(code)
        """)
        proc = subprocess.run([sys.executable, "-c", script, "select", "--labels",
                               str(labels_csv(tmp_path)), "--classes", "3", "--label-base",
                               "1", "--grid", "0.5,1", "--folds", "2"],
                              env=src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INTERNAL, proc.stderr
        assert ("RuntimeError: a worker process ended with exit status 7 without sending "
                "its results") in proc.stderr

    @pytest.mark.skipif(selection._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_the_command_on_every_usable_cpu_equals_one_cpu(self, tmp_path, monkeypatch):
        # `_usable_cpus` unpatched: the command forks one worker per further CPU
        args = ["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                "--label-base", "1", "--grid", "0.25,1,4", "--folds", "3", "--fit-final"]
        forked, serial = tmp_path / "forked.csv", tmp_path / "serial.csv"
        # a worker that outlived the command would hold its stdout open, so this
        # call would not return before the timeout
        proc = subprocess.run([sys.executable, "-m", "mmce.cli", *args, "--out", str(forked)],
                              env=src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert_no_child_left()
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 1)
        assert main([*args, "--out", str(serial)]) == EXIT_OK
        assert forked.read_bytes() == serial.read_bytes()
        assert (Path(f"{forked}.posterior.tsv").read_bytes()
                == Path(f"{serial}.posterior.tsv").read_bytes())

    @pytest.mark.parametrize("gold,fits", [(False, 4), (True, 2)])
    def test_one_warning_for_fits_that_did_not_converge(self, tmp_path, caplog, capsys,
                                                        gold, fits):
        extra = ["--gold", str(gold_csv(tmp_path))] if gold else []
        code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                     "--label-base", "1", "--grid", "0.25,1", "--folds", "2",
                     "--max-iters", "1", *extra])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("selected gamma=")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                    and "converge" in r.getMessage()]
        assert warnings == [f"{fits} of the {fits} fits that scored the grid did not "
                            "converge in 1 iterations; their scores are used as they are"]


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


@pytest.mark.parametrize("argv, message", [
    (["aggregate", "--alpha", "1", "--beta", "1", "--max-iters", "0"],
     "iteration counts must be >= 1"),
    (["aggregate", "--gamma", "0"], "gamma must be positive and finite"),
    (["aggregate", "--gamma", "1", "--alpha", "1"],
     "give either --gamma or --alpha/--beta, not both"),
    (["select", "--tol", "0"], "tol must be positive and finite"),
    (["select", "--folds", "1"], "folds must be >= 2"),
    (["select", "--grid", "0,1"], "gamma must be positive and finite"),
    (["select", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
])
def test_settings_are_checked_before_the_labels_are_read(tmp_path, capsys, argv, message):
    command, *flags = argv
    code = main([command, "--labels", str(tmp_path / "missing.csv"), "--classes", "3",
                 "--out", str(tmp_path / "out"), *flags])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_select_with_gold_checks_the_seed_it_does_not_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(data, "load_labels",
                        lambda *a: pytest.fail("labels read before the refusal"))
    code = main(["select", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                 "--label-base", "1", "--gold", str(gold_csv(tmp_path)), "--seed", "-1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


class Captured(BaseException):
    # not an Exception, so main's internal-error handler lets it escape
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


def test_an_internal_error_exits_3_with_its_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means "did not converge, outputs written"; a crash must not read so
    def fail(_labels, _hyper):
        raise RuntimeError("boom")

    monkeypatch.setattr(solver, "fit", fail)
    out = tmp_path / "post.tsv"
    code = main(["aggregate", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                 "--label-base", "1", "--gamma", "1", "--out", str(out)])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.splitlines()[-1] == "RuntimeError: boom"
    assert not out.exists()


def test_readme_and_parser_name_the_same_flags():
    # A flag the parser dropped must leave the README, and every flag the
    # parser takes must be documented there. The README's other flags belong
    # to pip, pytest and the benchmark.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    documented = set(re.findall(r"--[a-z][a-z-]*", readme))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {flag for command in sub.choices.values() for action in command._actions
              for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    assert documented - parsed == {"--no-build-isolation", "--strict-markers",
                                   "--workload", "--seconds"}
    assert parsed <= documented, sorted(parsed - documented)


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

    def test_ordinal_mode_reports_mean_square_error(self, tmp_path, capsys):
        post = tmp_path / "p.tsv"
        post.write_text("item\tpredicted\tp0\tp1\tp2\n"
                        "a\t0\t0.6\t0.3\t0.1\nb\t2\t0.1\t0.2\t0.7\n")
        gold = write_csv(tmp_path / "g.csv", [("a", 2), ("b", 3)])
        report = tmp_path / "eval.csv"
        code = main(["evaluate", "--predictions", str(post), "--gold", str(gold),
                     "--label-base", "1", "--mode", "ordinal", "--out", str(report)])
        assert code == EXIT_OK
        # a is one grade off, b is right
        assert capsys.readouterr().out.splitlines() == [
            "scored items   2", "error rate     50.00%", "mean sq error  0.5000"]
        assert report.read_text() == ("metric,value\nn_scored,2\nerror_rate,0.500000\n"
                                      "mse,0.500000\n")

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

    def test_posterior_without_probability_columns_is_usage_error(self, tmp_path, capsys):
        post = tmp_path / "p.tsv"
        post.write_text("item\tpredicted\na\t0\n")
        gold = write_csv(tmp_path / "g.csv", [("a", 0)])
        code = main(["evaluate", "--predictions", str(post), "--gold", str(gold)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: need at least 2 classes, got 0\n"

    def test_row_outside_every_calibration_bin_is_usage_error(self, tmp_path, capsys):
        post = tmp_path / "p.tsv"
        post.write_text("item\tpredicted\tp0\tp1\na\t0\t0.900000\t0.100000\n"
                        "b\t0\t0.000000\t0.000000\n")
        gold = write_csv(tmp_path / "g.csv", [("a", 0), ("b", 1)])
        args = ["evaluate", "--predictions", str(post), "--gold", str(gold)]
        assert main(args) == EXIT_OK
        assert "scored items   2" in capsys.readouterr().out
        assert main([*args, "--bins"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: posterior row 1: largest probability 0.0 "
                                           "is not in (0, 1]\n")

    def test_overflowing_predicted_label_is_usage_error(self, tmp_path, capsys):
        post = tmp_path / "big.tsv"
        post.write_text("item\tpredicted\tp0\tp1\na\t99999999999999999999\t0.5\t0.5\n")
        gold = write_csv(tmp_path / "g.csv", [("a", 0)])
        code = main(["evaluate", "--predictions", str(post), "--gold", str(gold)])
        assert code == EXIT_USAGE
        assert ("error: line 2: predicted label '99999999999999999999' does not fit in 64 bits"
                in capsys.readouterr().err)


def src_env():
    """This environment, with the package's source first on the import path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_does_not_load_scipy():
    # scipy is imported lazily, by the L-BFGS paths only; loading it at import
    # time would slow the start-up of every command
    code = ("import sys, mmce, mmce.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestKeepFreedHeap:
    """The commands that fit pin glibc's malloc thresholds; nothing else does,
    and a C library without glibc's `mallopt` leaves every command as it was."""

    COMMANDS = {  # argv after the command name, and whether the command fits
        "aggregate mmce": (["aggregate", "--labels", "{labels}", "--classes", "3",
                            "--label-base", "1", "--alpha", "1", "--beta", "1",
                            "--out", "{out}"], True),
        "aggregate mv": (["aggregate", "--labels", "{labels}", "--classes", "3",
                          "--label-base", "1", "--method", "mv", "--out", "{out}"], False),
        "aggregate ds": (["aggregate", "--labels", "{labels}", "--classes", "3",
                          "--label-base", "1", "--method", "ds", "--out", "{out}"], False),
        "select cv": (["select", "--labels", "{labels}", "--classes", "3", "--label-base",
                       "1", "--grid", "0.5,1", "--folds", "2", "--out", "{out}"], True),
        "select gold": (["select", "--labels", "{labels}", "--classes", "3",
                         "--label-base", "1", "--grid", "0.5,1", "--gold", "{gold}"], True),
        "evaluate": (["evaluate", "--predictions", "{posterior}", "--gold", "{gold}",
                      "--label-base", "1"], False),
        "stats": (["stats", "--labels", "{labels}", "--classes", "3", "--label-base", "1"],
                  False),
    }

    @staticmethod
    def argv(tmp_path, command):
        paths = dict(labels=labels_csv(tmp_path), gold=gold_csv(tmp_path),
                     out=tmp_path / "out", posterior=tmp_path / "mv.tsv")
        assert main(["aggregate", "--labels", str(paths["labels"]), "--classes", "3",
                     "--label-base", "1", "--method", "mv",
                     "--out", str(paths["posterior"])]) == EXIT_OK
        return [arg.format(**paths) for arg in TestKeepFreedHeap.COMMANDS[command][0]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_the_commands_that_fit_pin(self, tmp_path, monkeypatch, capsys, command):
        # pinning raises the peak memory of the commands that do not fit,
        # whose large arrays are freed once, not once per model pass
        argv = self.argv(tmp_path, command)
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(command))
        assert main(argv) == EXIT_OK
        assert len(calls) == self.COMMANDS[command][1]

    @staticmethod
    def fake_cdll(monkeypatch, calls, mallopt_returns=None, error=None):
        """Replace `ctypes.CDLL` with a library whose `mallopt` records its
        calls and returns `mallopt_returns`; with None it has no `mallopt`."""
        def mallopt(option, value):
            calls.append((option, value))
            return mallopt_returns

        def cdll(name):
            assert name is None
            if error is not None:
                raise error
            return (types.SimpleNamespace() if mallopt_returns is None
                    else types.SimpleNamespace(mallopt=mallopt))
        monkeypatch.setattr(ctypes, "CDLL", cdll)

    @pytest.mark.parametrize("returns,expected", [(1, [(-3, 1 << 28), (-1, 1 << 28)]),
                                                  (0, [(-3, 1 << 28)])])
    def test_the_trim_threshold_only_follows_a_taken_mmap_threshold(
            self, monkeypatch, returns, expected):
        # either threshold alone makes the page faults worse
        calls = []
        self.fake_cdll(monkeypatch, calls, mallopt_returns=returns)
        monkeypatch.setattr(sys, "platform", "linux")
        cli._keep_freed_heap()
        assert calls == expected

    def test_does_nothing_off_linux(self, monkeypatch):
        self.fake_cdll(monkeypatch, [], error=AssertionError("CDLL was called"))
        monkeypatch.setattr(sys, "platform", "darwin")
        cli._keep_freed_heap()

    @pytest.mark.parametrize("fake", [dict(error=OSError("no C library")),
                                      dict(mallopt_returns=None),
                                      dict(mallopt_returns=0)],
                             ids=["no-library", "no-mallopt", "mallopt-refuses"])
    def test_a_library_that_does_not_pin_leaves_the_outputs_as_they_are(
            self, tmp_path, monkeypatch, capsys, fake):
        outputs = ("post.tsv", "params.tsv", "trace.csv")
        argv = ["aggregate", "--labels", str(labels_csv(tmp_path)), "--classes", "3",
                "--label-base", "1", "--gamma", "1"]

        def run(name):
            (tmp_path / name).mkdir()
            paths = [str(tmp_path / name / output) for output in outputs]
            assert main([*argv, "--out", paths[0], "--params-out", paths[1],
                         "--trace", paths[2]]) == EXIT_OK
            return [Path(path).read_bytes() for path in paths]

        pinned = run("pinned")
        monkeypatch.setattr(sys, "platform", "linux")
        self.fake_cdll(monkeypatch, [], **fake)
        assert run("unpinned") == pinned
        assert "error" not in capsys.readouterr().err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc only")
@pytest.mark.parametrize("pin", [True, False], ids=["pinned", "no-op"])
def test_a_repeated_fit_in_one_process_does_not_fault_its_heap_in_again(tmp_path, pin):
    # in a fresh process, since this one may have pinned already. A call that
    # takes the heap to a new high-water mark faults a few dozen pages in for
    # the first time, on a call that the heap layout decides, so the fewer of
    # the second and third calls' faults is read. The no-op control runs
    # unpinned beside a pinned run on the same input, and shows that the fit's
    # temporaries would fault in again: pinning cuts the faults at least
    # tenfold. How many pages an unpinned run faults moves with the heap
    # layout, and so with the checkout's path: 296-1804 in checkouts under
    # seven directory names, against at most 16 pinned.
    conf = np.stack([synthetic.diagonal_confusion(3, a) for a in np.linspace(0.55, 0.85, 40)])
    labels, _ = synthetic.sample_labels(40, 2000, 3, 5, conf, seed=7)
    path = write_csv(tmp_path / "labels.csv",
                     zip(np.take(labels.worker_ids, labels.workers),
                         np.take(labels.item_ids, labels.items), labels.labels))
    script = textwrap.dedent("""
        import resource, sys
        from mmce import cli

        if sys.argv[1] == "no-op":
            cli._keep_freed_heap = lambda: None
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert cli.main(["aggregate", *sys.argv[2:]]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(min(faults[1:]))
    """)
    env = {key: value for key, value in src_env().items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}

    def faults(mode):
        proc = subprocess.run([sys.executable, "-c", script, mode,
                               "--labels", str(path), "--classes", "3", "--gamma", "1",
                               "--out", str(tmp_path / "post.tsv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1])

    pinned = faults("pin")
    assert pinned < 50
    if not pin:
        unpinned = faults("no-op")
        assert unpinned > 10 * (pinned + 10), f"{unpinned} faults unpinned, {pinned} pinned"
