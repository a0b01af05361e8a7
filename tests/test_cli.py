"""End-to-end command line runs against temporary files."""

import contextlib
import errno
import io
import os
import stat
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


@pytest.mark.parametrize("window", ["100", str(10**18), str(10**19)])
def test_train_window_wider_than_every_chain_names_the_empty_class(
        tmp_path, capsys, window):
    data = tmp_path / "train.txt"
    write_dataset(data, planted_dataset(6, 30, seed=1))
    code = main(["train", "--data", str(data),
                 "--out", str(tmp_path / "m.txt"), "--window", window])
    assert code == 1
    assert capsys.readouterr().err \
        == "error: class H has no training windows\n"
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 728. TiB"),
     "Unable to allocate 728. TiB"),
    (MemoryError(), "out of memory"),
])
def test_train_reports_a_failed_allocation_on_one_error_line(
        tmp_path, chains, capsys, monkeypatch, exc, line):
    # A training call that raises MemoryError stands in for an impossible
    # allocation (say ``--states 10000000``); none is attempted here.
    def train_models(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ssph.cli, "train_models", train_models)
    data = tmp_path / "train.txt"
    write_dataset(data, chains[:4])
    code = main(["train", "--data", str(data),
                 "--out", str(tmp_path / "m.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {line}\n"
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


def test_predict_window_too_wide_to_build_writes_the_boundary_labels(
        tmp_path, capsys):
    # No boundary string as long as the half-width is built unless a record
    # has a complete window, so 10**18 does not run out of memory and
    # 10**19 (past sys.maxsize) does not overflow.
    model_path = tmp_path / "models.txt"
    write_models(stub_model_set(), model_path)
    fasta = tmp_path / "in.fa"
    fasta.write_text(">s\nACDEIKLMRS\n", encoding="utf-8")
    written = []
    for window in ("1000", str(10**18), str(10**19)):
        out = tmp_path / f"{window}.txt"
        assert main(["predict", "--models", str(model_path), "--fasta",
                     str(fasta), "--out", str(out), "--window", window]) == 0
        written.append(out.read_bytes())
    assert written == [b">s\nCCCCCCCCCC\n"] * 3
    assert capsys.readouterr().err == ""


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


def test_predict_reports_a_state_count_int_cannot_convert(tmp_path, capsys):
    models = tmp_path / "models.txt"
    models.write_text(f"SSPH-HMM v1\nalphabet {ALPHABET}\nmodel H\n"
                      f"states {'1' * 5000}\n", encoding="utf-8")
    fasta = tmp_path / "in.fa"
    fasta.write_text(">s\nACDEF\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--models", str(models), "--fasta", str(fasta),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: line 4: states has too many digits\n"
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


def missing_path_error(path):
    return (f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
            f"{str(path)!r}\n")


def directory_error(path):
    return (f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
            f"{str(path)!r}\n")


def tree(root):
    """Every path under ``root``, with its bytes if it is a file."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("bad, good, target, old", [
    pytest.param("csv", "out", "nodir", False, id="csv-out"),
    pytest.param("csv", None, "nodir", False, id="csv-None"),
    pytest.param("out", "csv", "nodir", False, id="out-csv"),
    pytest.param("csv", "out", "nodir", True, id="csv-nodir-old-out"),
    pytest.param("csv", "out", "dir", True, id="csv-dir-old-out"),
    pytest.param("out", "csv", "dir", True, id="out-dir-old-csv")])
def test_a_failed_eval_write_leaves_no_output_and_prints_no_report(
        tmp_path, capsys, bad, good, target, old):
    # README: a failed run changes no output file, and eval writes both
    # files or neither. An output in a missing directory, or one that is a
    # directory, fails the run, which then leaves the other output as it
    # was (absent, or holding its old bytes), no temp file and no report
    # on stdout.
    labels = format_label_records([("a", "HHEECC")])
    (tmp_path / "p.txt").write_text(labels, encoding="utf-8")
    (tmp_path / "t.txt").write_text(labels, encoding="utf-8")
    if target == "nodir":
        bad_path = tmp_path / "nodir" / f"report.{bad}"
        err = missing_path_error(bad_path)
    else:
        bad_path = tmp_path / f"report.{bad}"
        bad_path.mkdir()
        err = directory_error(bad_path)
    argv = ["eval", "--pred", str(tmp_path / "p.txt"),
            "--truth", str(tmp_path / "t.txt"), f"--{bad}", str(bad_path)]
    if good:
        argv += [f"--{good}", str(tmp_path / f"report.{good}")]
        if old:
            (tmp_path / f"report.{good}").write_bytes(b"OLD\r\n")
    before = tree(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)
    assert tree(tmp_path) == before  # old bytes kept, no *.tmp left


def test_eval_outputs_land_as_before(tmp_path, capsys):
    # --out and --csv naming one path leave the CSV there, and an --out
    # that is a symlink to a directory is replaced by the report.
    labels = format_label_records([("a", "HHEECC")])
    (tmp_path / "p.txt").write_text(labels, encoding="utf-8")
    (tmp_path / "t.txt").write_text(labels, encoding="utf-8")
    argv = ["eval", "--pred", str(tmp_path / "p.txt"),
            "--truth", str(tmp_path / "t.txt")]
    same = tmp_path / "same"
    assert main(argv + ["--out", str(same), "--csv", str(same)]) == 0
    assert capsys.readouterr() == ("", "")
    assert same.read_text(encoding="utf-8").startswith("true\\pred,H,E,C")
    (tmp_path / "adir").mkdir()
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "adir")
    assert main(argv + ["--out", str(link)]) == 0
    assert capsys.readouterr() == ("", "")
    assert not link.is_symlink()
    assert "Q3: 1.0000" in link.read_text(encoding="utf-8")
    assert not any((tmp_path / "adir").iterdir())


def test_eval_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    # As ``open(path, "w")`` would: the new report keeps the old file's
    # 0o600, where a new file would get 0o644 under this umask.
    labels = format_label_records([("a", "HHEECC")])
    (tmp_path / "p.txt").write_text(labels, encoding="utf-8")
    (tmp_path / "t.txt").write_text(labels, encoding="utf-8")
    report = tmp_path / "rep.txt"
    report.write_bytes(b"OLD\n")
    report.chmod(0o600)
    old = os.umask(0o022)
    try:
        code = main(["eval", "--pred", str(tmp_path / "p.txt"),
                     "--truth", str(tmp_path / "t.txt"),
                     "--out", str(report)])
    finally:
        os.umask(old)
    assert (code, capsys.readouterr()) == (0, ("", ""))
    assert "Q3: 1.0000" in report.read_text(encoding="utf-8")
    assert stat.S_IMODE(report.stat().st_mode) == 0o600


@pytest.mark.parametrize("command, flag", [("train", "--out"),
                                           ("eval", "--out"),
                                           ("eval", "--csv")])
def test_output_errors_of_every_subcommand_name_the_given_path(
        tmp_path, chains, capsys, command, flag):
    # As for predict: an output in a missing directory or one that is a
    # directory fails with the given path in the error line, and the run
    # leaves every file as it was.
    write_dataset(tmp_path / "train.txt", chains[:4])
    labels = format_label_records([("a", "HHEECC")])
    (tmp_path / "p.txt").write_text(labels, encoding="utf-8")
    (tmp_path / "t.txt").write_text(labels, encoding="utf-8")
    (tmp_path / "adir").mkdir()
    argv = {"train": ["train", "--data", str(tmp_path / "train.txt"),
                      "--iters", "0"],
            "eval": ["eval", "--pred", str(tmp_path / "p.txt"),
                     "--truth", str(tmp_path / "t.txt")]}[command]
    before = tree(tmp_path)
    for out, err in [
            (tmp_path / "nodir" / "x.txt",
             missing_path_error(tmp_path / "nodir" / "x.txt")),
            (tmp_path / "adir", directory_error(tmp_path / "adir"))]:
        assert main(argv + [flag, str(out)]) == 1
        assert capsys.readouterr() == ("", err)
        assert tree(tmp_path) == before


def test_predict_output_errors_name_the_given_path(tmp_path, capsys):
    # Neither a missing directory nor an --out that is a directory shows
    # the temp file in the error line, and neither leaves the temp file.
    model_path = tmp_path / "models.txt"
    write_models(stub_model_set(), model_path)
    fasta = tmp_path / "in.fa"
    fasta.write_text(">s\nACDEF\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    for out, err in [
            (tmp_path / "nodir" / "x.txt", missing_path_error(
                tmp_path / "nodir" / "x.txt")),
            (tmp_path / "adir", f"error: [Errno {errno.EISDIR}] "
                                f"{os.strerror(errno.EISDIR)}: "
                                f"{str(tmp_path / 'adir')!r}\n")]:
        assert main(["predict", "--models", str(model_path), "--fasta",
                     str(fasta), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", err)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["adir", "in.fa", "models.txt"]
        assert not any((tmp_path / "adir").iterdir())


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


# Valid inputs of each subcommand, small enough that a run that gets through
# the parsers takes a few milliseconds.
FUZZ_CHAINS = planted_dataset(6, 12, seed=2)
VALID_INPUTS = {
    "models": format_models(ClassModelSet(
        {label: new_random_hmm(2, len(ALPHABET), i)
         for i, label in enumerate("HEC")})),
    "fasta": format_fasta([FastaRecord(r.id, r.sequence)
                           for r in FUZZ_CHAINS]),
    "pred": format_label_records([(r.id, r.labels[::-1])
                                  for r in FUZZ_CHAINS]),
    "truth": format_label_records([(r.id, r.labels) for r in FUZZ_CHAINS]),
    "data": format_labeled_dataset(FUZZ_CHAINS),
}
# Each subcommand's argv, the input files it reads and the files it writes.
FUZZ_RUNS = {
    "predict": (["predict", "--models", "{models}", "--fasta", "{fasta}",
                 "--out", "{out}", "--window", "2"], ("out",)),
    "eval": (["eval", "--pred", "{pred}", "--truth", "{truth}", "--window",
              "2", "--out", "{out}", "--csv", "{csv}"], ("out", "csv")),
    "train": (["train", "--data", "{data}", "--out", "{out}", "--window",
               "1", "--iters", "2"], ("out",)),
}


def file_bytes(valid):
    """Arbitrary text, arbitrary bytes, the valid file itself, or the valid
    file with a slice replaced by arbitrary text or bytes."""
    valid = valid.encode("utf-8")
    junk = st.text(max_size=40).map(str.encode) | st.binary(max_size=40)
    mutated = st.builds(
        lambda start, cut, insert: valid[:start] + insert
        + valid[start + cut:],
        st.integers(0, len(valid)), st.integers(0, 30), junk)
    return (st.text(max_size=200).map(str.encode) | st.binary(max_size=200)
            | st.just(valid) | mutated)


@st.composite
def fuzz_runs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_RUNS)))
    argv, _ = FUZZ_RUNS[command]
    names = [arg[1:-1] for arg in argv if arg[1:-1] in VALID_INPUTS]
    return command, {name: draw(file_bytes(VALID_INPUTS[name]))
                     for name in names}


@given(fuzz_runs())
@settings(max_examples=150, deadline=None)
def test_property_main_fails_on_bad_input_files_with_one_error_line(
        tmp_path_factory, run):
    # README promises that every failed run exits 1 with one error: line and
    # leaves no output file; no input file may make main() raise instead.
    command, inputs = run
    tmp_path = tmp_path_factory.mktemp("fuzz")
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    argv, outputs = FUZZ_RUNS[command]
    argv = [arg.format_map({name: tmp_path / name
                            for name in [*inputs, *outputs]})
            for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == ""
        assert all((tmp_path / name).exists() for name in outputs)
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n") and "Traceback" not in err
        assert not any((tmp_path / name).exists() for name in outputs)


@pytest.mark.parametrize("command, name", [
    (command, arg[1:-1]) for command, (argv, _) in sorted(FUZZ_RUNS.items())
    for arg in argv if arg[1:-1] in VALID_INPUTS])
def test_an_input_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys,
                                                         command, name):
    # One 0xff byte in the middle of an otherwise valid input: the run
    # fails with one error line that ends with that file's path, prints
    # nothing on stdout and writes no output.
    argv, outputs = FUZZ_RUNS[command]
    names = {name: tmp_path / name for name in [*VALID_INPUTS, *outputs]}
    for each, text in VALID_INPUTS.items():
        data = text.encode("utf-8")
        if each == name:
            data = data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]
        names[each].write_bytes(data)
    assert main([arg.format_map(names) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff ")
    assert err.endswith(f": {str(names[name])!r}\n")
    assert err.count("\n") == 1
    assert not any(names[output].exists() for output in outputs)


@pytest.mark.parametrize("command", sorted(FUZZ_RUNS))
def test_a_leading_byte_order_mark_is_dropped_from_every_input(
        tmp_path, capsys, command):
    # Each input file, copied with a UTF-8 byte-order mark in front, gives
    # the plain run's exit code, stdout and output bytes.
    argv, outputs = FUZZ_RUNS[command]
    runs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        directory = tmp_path / f"prefix{len(prefix)}"
        directory.mkdir()
        names = {name: directory / name for name in [*VALID_INPUTS, *outputs]}
        for name, text in VALID_INPUTS.items():
            names[name].write_bytes(prefix + text.encode("utf-8"))
        code = main([arg.format_map(names) for arg in argv])
        runs.append((code, capsys.readouterr(),
                     [names[name].read_bytes() for name in outputs
                      if names[name].exists()]))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
