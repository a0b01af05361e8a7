"""End-to-end command line runs against temporary files."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import stub_model_set
import ssph
from ssph import (ALPHABET, ClassModelSet, format_fasta,
                  format_labeled_dataset, format_label_records, format_models,
                  new_random_hmm, parse_label_records, planted_dataset,
                  write_models)
from ssph.cli import build_parser, main
from ssph.io import FastaRecord
from ssph.metrics import confusion, format_report_csv


def write_dataset(path, records):
    path.write_text(format_labeled_dataset(records), encoding="utf-8")


def fasta_from_records(path, records):
    path.write_text(format_fasta(
        [FastaRecord(r.id, r.sequence) for r in records]), encoding="utf-8")


@pytest.fixture(scope="module")
def chains():
    return planted_dataset(24, 40, seed=13, stay=0.9)


def run_training(tmp_path, chains, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = tmp_path / "train.txt"
    model_path = tmp_path / "models.txt"
    write_dataset(data, chains)
    code = main(["train", "--data", str(data), "--out", str(model_path),
                 "--window", "2", "--iters", "4", "--seed", str(seed)])
    assert code == 0
    return model_path


def test_train_predict_eval_pipeline(tmp_path, chains, capsys):
    model_path = run_training(tmp_path, chains[:20])
    out = capsys.readouterr().out
    assert out.count("final log-likelihood") == 3

    fasta = tmp_path / "test.fa"
    fasta_from_records(fasta, chains[20:])
    pred_path = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(model_path), "--fasta", str(fasta),
                 "--out", str(pred_path), "--window", "2"])
    assert code == 0
    predictions = parse_label_records(pred_path.read_text(encoding="utf-8"))
    assert [rid for rid, _ in predictions] == [r.id for r in chains[20:]]
    assert all(len(labels) == 40 for _, labels in predictions)

    truth_path = tmp_path / "truth.txt"
    truth_path.write_text(format_label_records(
        [(r.id, r.labels) for r in chains[20:]]), encoding="utf-8")
    code = main(["eval", "--pred", str(pred_path), "--truth", str(truth_path),
                 "--window", "2"])
    assert code == 0
    report = capsys.readouterr().out
    assert "Q3:" in report
    assert "recall H:" in report


def test_train_is_deterministic(tmp_path, chains):
    a = run_training(tmp_path / "a", chains[:20], seed=4)
    b = run_training(tmp_path / "b", chains[:20], seed=4)
    assert a.read_bytes() == b.read_bytes()


def test_train_seed_changes_the_model_file(tmp_path, chains):
    a = run_training(tmp_path / "a", chains[:20], seed=4)
    b = run_training(tmp_path / "b", chains[:20], seed=5)
    assert a.read_bytes() != b.read_bytes()


def test_train_with_zero_iterations_writes_the_seeded_models(tmp_path,
                                                            chains, capsys):
    data = tmp_path / "train.txt"
    model_path = tmp_path / "models.txt"
    write_dataset(data, chains)
    code = main(["train", "--data", str(data), "--out", str(model_path),
                 "--states", "3", "--iters", "0", "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out == "".join(
        f"class {label}: no iterations run\n" for label in "HEC")
    seeded = ClassModelSet({label: new_random_hmm(3, len(ALPHABET), 7 + i)
                            for i, label in enumerate("HEC")})
    assert model_path.read_text(encoding="utf-8") == format_models(seeded)


def test_train_reports_missing_class(tmp_path, capsys):
    records = planted_dataset(4, 30, seed=1)
    all_h = [type(r)(r.id, r.sequence, "H" * len(r.labels)) for r in records]
    data = tmp_path / "train.txt"
    write_dataset(data, all_h)
    code = main(["train", "--data", str(data),
                 "--out", str(tmp_path / "m.txt"), "--window", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "class E" in err
    assert not (tmp_path / "m.txt").exists()


def test_predict_empty_fasta_writes_empty_output(tmp_path):
    model_path = tmp_path / "models.txt"
    write_models(stub_model_set(), model_path)
    fasta = tmp_path / "empty.fa"
    fasta.write_text("", encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(model_path), "--fasta", str(fasta),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == ""


def test_predict_stub_fixture_sequence(tmp_path):
    model_path = tmp_path / "models.txt"
    write_models(stub_model_set(), model_path)
    fasta = tmp_path / "in.fa"
    fasta.write_text(">fix\nACDEIKLMRSTV\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(model_path), "--fasta", str(fasta),
                 "--out", str(out), "--window", "2"])
    assert code == 0
    assert out.read_text(encoding="utf-8") == ">fix\nCCHHEEEECCCC\n"


def test_predict_short_sequence_is_all_boundary(tmp_path):
    model_path = tmp_path / "models.txt"
    write_models(stub_model_set(), model_path)
    fasta = tmp_path / "in.fa"
    fasta.write_text(">s\nACD\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(model_path), "--fasta", str(fasta),
                 "--out", str(out), "--boundary-label", "H"])
    assert code == 0
    assert parse_label_records(out.read_text(encoding="utf-8")) == [("s", "HHH")]


def test_predict_many_records_matches_one_record_runs(tmp_path, chains):
    # One run over many records, with records shorter than one window
    # between them, writes what one run per record writes.
    model_path = run_training(tmp_path, chains[:20])
    records = [FastaRecord(r.id, r.sequence) for r in chains[20:]]
    records[1:1] = [FastaRecord("one", "A"), FastaRecord("four", "ACDE")]
    records.append(FastaRecord("long", "".join(r.sequence for r in chains)))
    for label in "HEC":
        single = []
        for i, record in enumerate(records):
            fasta, out = tmp_path / f"{i}.fa", tmp_path / f"{i}.txt"
            fasta.write_text(format_fasta([record]), encoding="utf-8")
            assert main(["predict", "--models", str(model_path), "--fasta",
                         str(fasta), "--out", str(out), "--window", "2",
                         "--boundary-label", label]) == 0
            single.append(out.read_bytes())
        fasta, out = tmp_path / "all.fa", tmp_path / "all.txt"
        fasta.write_text(format_fasta(records), encoding="utf-8")
        assert main(["predict", "--models", str(model_path), "--fasta",
                     str(fasta), "--out", str(out), "--window", "2",
                     "--boundary-label", label]) == 0
        assert out.read_bytes() == b"".join(single)


def test_predict_missing_model_file_fails_cleanly(tmp_path, capsys):
    fasta = tmp_path / "in.fa"
    fasta.write_text(">s\nACDEF\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(tmp_path / "nope.txt"),
                 "--fasta", str(fasta), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_eval_identical_files_scores_one(tmp_path, capsys):
    labels = [("a", "HHEECC"), ("b", "CCCHHH")]
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(format_label_records(labels), encoding="utf-8")
    truth.write_text(format_label_records(labels), encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
    assert "Q3: 1.0000" in capsys.readouterr().out


def test_eval_hand_case_seven_of_ten(tmp_path, capsys):
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(">a\nHHHHHEECCC\n", encoding="utf-8")
    truth.write_text(">a\nHHHHHEEEEE\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
    assert "Q3: 0.7000" in capsys.readouterr().out


def test_eval_rejects_mismatched_ids(tmp_path, capsys):
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(">a\nHEC\n", encoding="utf-8")
    truth.write_text(">b\nHEC\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
    assert "'a'" in capsys.readouterr().err


def test_eval_rejects_mismatched_record_counts(tmp_path, capsys):
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(">a\nHEC\n", encoding="utf-8")
    truth.write_text(">a\nHEC\n>b\nCCC\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
    assert "records" in capsys.readouterr().err


def test_eval_rejects_length_mismatch(tmp_path, capsys):
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(">a\nHEC\n", encoding="utf-8")
    truth.write_text(">a\nHECC\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
    assert "length" in capsys.readouterr().err


def test_eval_boundary_exclusion_flag(tmp_path, capsys):
    # Predictions differ from truth only in the first/last two positions.
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(">a\nCCHHHHCC\n", encoding="utf-8")
    truth.write_text(">a\nHHHHHHEE\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--window", "2"]) == 0
    included = capsys.readouterr().out
    assert "Q3: 0.5000" in included
    assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--window", "2", "--no-include-boundary-in-eval"]) == 0
    excluded = capsys.readouterr().out
    assert "Q3: 1.0000" in excluded


@given(st.lists(st.tuples(st.text("HEC", min_size=1, max_size=14),
                          st.text("HEC", min_size=14, max_size=14)),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_eval_counts_every_record_as_the_record_loop_does(tmp_path_factory,
                                                          pairs, window,
                                                          include):
    """One confusion over the joined (trimmed) records gives the CSV that
    summing one confusion per record gives."""
    tmp_path = tmp_path_factory.mktemp("eval")
    pairs = [(pred, truth[:len(pred)]) for pred, truth in pairs]
    margin = 0 if include else window
    total = sum(confusion(pred[margin:len(pred) - margin],
                          truth[margin:len(truth) - margin])
                for pred, truth in pairs)
    for name, column in (("p.txt", 0), ("t.txt", 1)):
        (tmp_path / name).write_text(format_label_records(
            [(f"r{i}", pair[column]) for i, pair in enumerate(pairs)]),
            encoding="utf-8")
    csv = tmp_path / "r.csv"
    flag = "--include-boundary-in-eval" if include else \
        "--no-include-boundary-in-eval"
    code = main(["eval", "--pred", str(tmp_path / "p.txt"), "--truth",
                 str(tmp_path / "t.txt"), "--window", str(window), flag,
                 "--out", str(tmp_path / "r.txt"), "--csv", str(csv)])
    if total.sum() == 0:  # every residue trimmed: no counts to report
        assert code == 1 and not csv.exists()
    else:
        assert code == 0
        assert csv.read_text(encoding="utf-8") == format_report_csv(total)


def test_eval_writes_report_and_csv_files(tmp_path):
    labels = [("a", "HHEECC")]
    pred = tmp_path / "p.txt"
    truth = tmp_path / "t.txt"
    pred.write_text(format_label_records(labels), encoding="utf-8")
    truth.write_text(format_label_records(labels), encoding="utf-8")
    report = tmp_path / "report.txt"
    csv = tmp_path / "report.csv"
    code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--out", str(report), "--csv", str(csv)])
    assert code == 0
    assert "Q3: 1.0000" in report.read_text(encoding="utf-8")
    assert csv.read_text(encoding="utf-8").startswith("true\\pred,H,E,C")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_requires_arguments():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train"])


def test_invalid_flag_values_fail_cleanly(tmp_path, chains, capsys):
    data = tmp_path / "train.txt"
    write_dataset(data, chains[:4])
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                 "--states", "0"])
    assert code == 1
    assert "--states" in capsys.readouterr().err
    for tol in ("0", "nan"):
        code = main(["train", "--data", str(data), "--out",
                     str(tmp_path / "m"), "--tol", tol])
        assert code == 1
        assert "error: --tol must be > 0" in capsys.readouterr().err
    missing = str(tmp_path / "missing")
    for argv, flag in (
            (["train", "--data", str(data), "--out", missing], "--window"),
            (["predict", "--models", missing, "--fasta", missing,
              "--out", missing], "--window"),
            (["eval", "--pred", missing, "--truth", missing], "--window")):
        assert main(argv + [flag, "0"]) == 1
        assert flag in capsys.readouterr().err
    for flag in ("--iters", "--seed"):
        code = main(["train", "--data", str(data), "--out", missing,
                     flag, "-1"])
        assert code == 1
        assert flag in capsys.readouterr().err


# One process reuses main() (and its parser) for every run below; each run
# must match a fresh ``python -m ssph.cli`` with the same arguments and files.
REUSE_RUNS = (
    ["train", "--data", "train.txt", "--out", "models.txt", "--states", "2",
     "--window", "2", "--iters", "3"],
    ["predict", "--models", "models.txt", "--fasta", "test.fa",
     "--out", "pred.txt", "--window", "2"],
    ["eval", "--pred", "pred.txt", "--truth", "truth.txt", "--window", "2"],
    ["eval", "--pred", "pred.txt", "--truth", "truth.txt", "--window", "2",
     "--csv", "report.csv"],
    ["eval", "--pred", "pred.txt", "--truth", "truth.txt", "--window", "2",
     "--no-include-boundary-in-eval", "--out", "trimmed.txt"],
    ["eval", "--pred", "pred.txt", "--truth", "truth.txt", "--window", "2"],
    ["predict", "--models", "models.txt", "--fasta", "test.fa",
     "--out", "zero.txt", "--window", "0"],
    ["predict", "--models", "models.txt", "--fasta", "test.fa"],
    ["predict", "--models", "models.txt", "--fasta", "test.fa",
     "--out", "pred2.txt", "--boundary-label", "H"],
)


def files_of(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_main_reused_in_one_process_matches_fresh_runs(tmp_path, chains,
                                                       capsys, monkeypatch):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for directory in (reused, fresh):
        directory.mkdir()
        write_dataset(directory / "train.txt", chains[:16])
        fasta_from_records(directory / "test.fa", chains[16:])
        (directory / "truth.txt").write_text(format_label_records(
            [(r.id, r.labels) for r in chains[16:]]), encoding="utf-8")
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at this width
    monkeypatch.chdir(reused)
    src = str(Path(ssph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    codes = []
    for argv in REUSE_RUNS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        done = subprocess.run([sys.executable, "-m", "ssph.cli", *argv],
                              cwd=fresh, env=env, capture_output=True,
                              text=True)
        assert (code, out, err) == (done.returncode, done.stdout,
                                    done.stderr), argv
        assert files_of(reused) == files_of(fresh), argv
        codes.append(code)
    assert codes == [0] * 6 + [1, 2, 0]
