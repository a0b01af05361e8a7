"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute; under plain ``pytest`` they show up in the captured output of any
failing criterion.
"""

import math
import time

import numpy as np

import oracle
from helpers import random_model, single_symbol_stub, small_cases
from ssph import (ClassModelSet, FastaRecord, backward_log_likelihood,
                  baum_welch, confusion, format_fasta, forward_log_likelihood,
                  new_random_hmm, parse_fasta, per_class_recall,
                  planted_dataset, predict_structure, q3, read_models,
                  reduce_dssp, train_models, viterbi, write_models)
from ssph.cli import main
from ssph.io import format_label_records, format_labeled_dataset


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{tail}")
    assert ok, f"acceptance {number} {name}: {status}{tail}"


def test_acceptance_1_oracle_equivalence():
    start = time.perf_counter()
    worst_max = worst_sum = 0.0
    count = 0
    for model, obs in small_cases(1000, seed=1001, max_states=3,
                                  max_symbols=5, max_length=8):
        best, _ = oracle.best_path_probability(model, obs)
        total = oracle.total_probability(model, obs)
        worst_max = max(worst_max,
                        abs(math.exp(viterbi(model, obs).log_prob) - best))
        worst_sum = max(worst_sum,
                        abs(math.exp(forward_log_likelihood(model, obs)) - total))
        count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 1000 and worst_max <= 1e-10 and worst_sum <= 1e-10 \
        and elapsed < 10.0
    report(1, "oracle equivalence over small models", ok,
           f"{count} cases, max |viterbi-oracle| {worst_max:.2e}, "
           f"max |forward-oracle| {worst_sum:.2e}, {elapsed:.1f}s")


def test_acceptance_2_forward_backward_agreement():
    rng = np.random.default_rng(2002)
    worst = 0.0
    count = 0
    for i in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 11))
        length = 200 if i >= 995 else int(rng.integers(1, 201))
        model = random_model(rng, n, m)
        obs = rng.integers(0, m, size=length).tolist()
        diff = abs(forward_log_likelihood(model, obs)
                   - backward_log_likelihood(model, obs))
        worst = max(worst, diff)
        count += 1
    ok = count >= 1000 and worst <= 1e-8
    report(2, "forward/backward agreement", ok,
           f"{count} cases up to length 200, max |f-b| {worst:.2e}")


def test_acceptance_3_em_monotonicity():
    rng = np.random.default_rng(3003)
    worst = np.inf
    runs = 0
    start = time.perf_counter()
    for run in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 8))
        length = int(rng.integers(5, 50))
        model = new_random_hmm(n, m, seed=run)
        training = [rng.integers(0, m, size=length).tolist()
                    for _ in range(int(rng.integers(5, 20)))]
        _, trace = baum_welch(model, training, max_iters=50, tol=1e-300)
        deltas = np.diff(trace)
        if deltas.size:
            worst = min(worst, float(deltas.min()))
        runs += 1
    elapsed = time.perf_counter() - start
    ok = runs >= 100 and worst >= -1e-9
    report(3, "EM log-likelihood monotonicity", ok,
           f"{runs} runs x 50 iters, worst delta {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_4_worked_window_fixture():
    # Stub models whose single-symbol window probabilities are exactly
    # 0.3 (helix), 0.4 (strand), 0.6 (coil).
    models = ClassModelSet({"H": single_symbol_stub(0.3),
                            "E": single_symbol_stub(0.4),
                            "C": single_symbol_stub(0.6)})
    pred = predict_structure(models, "AAA", half_width=1, boundary_label="H")
    recovered = tuple(math.exp(viterbi(models[label], [0]).log_prob)
                      for label in "HEC")
    ok = pred == "HCH" and all(
        abs(got - want) <= 1e-12
        for got, want in zip(recovered, (0.3, 0.4, 0.6)))
    report(4, "max {0.3, 0.4, 0.6} selects coil", ok,
           f"stub models -> {pred!r}, window probabilities {recovered}")


def test_acceptance_5_dssp_reduction():
    expected = {"H": "H", "G": "H", "I": "H",
                "E": "E", "B": "E",
                "T": "C", "S": "C", "C": "C"}
    results = {code: reduce_dssp(code) for code in expected}
    ok = results == expected
    report(5, "eight DSSP codes reduce to three classes", ok,
           " ".join(f"{k}->{v}" for k, v in results.items()))


def test_acceptance_6_synthetic_recovery():
    start = time.perf_counter()
    chains = planted_dataset(200, 100, seed=7, stay=0.9)
    train, held_out = chains[:150], chains[150:]
    models, _ = train_models(train, num_states=2, half_width=2,
                             max_iters=10, seed=0)
    total = np.zeros((3, 3), dtype=np.int64)
    for rec in held_out:
        pred = predict_structure(models, rec.sequence, half_width=2)
        total += confusion(pred, rec.labels)
    elapsed = time.perf_counter() - start
    score = q3(total)
    helix_recall = per_class_recall(total)[0]
    ok = score >= 0.55 and helix_recall >= 0.55 and elapsed < 60.0
    report(6, "synthetic recovery on planted models", ok,
           f"Q3 {score:.3f}, helix recall {helix_recall:.3f}, {elapsed:.1f}s")


def test_acceptance_7_round_trips(tmp_path):
    rng = np.random.default_rng(7007)
    model_ok = 0
    for i in range(100):
        states = int(rng.integers(1, 5))
        models = ClassModelSet({label: random_model(rng, states, 21)
                                for label in "HEC"})
        path = tmp_path / f"m{i}.txt"
        write_models(models, path)
        loaded = read_models(path)
        if all(np.array_equal(loaded[c].initial, models[c].initial)
               and np.array_equal(loaded[c].transition, models[c].transition)
               and np.array_equal(loaded[c].emission, models[c].emission)
               for c in "HEC"):
            model_ok += 1

    alphabet = "ACDEFGHIKLMNPQRSTVWYX"
    fasta_ok = 0
    for i in range(100):
        records = [
            FastaRecord(f"rec{i}_{j}",
                        "".join(alphabet[k] for k in
                                rng.integers(0, 21, size=int(rng.integers(1, 80)))))
            for j in range(int(rng.integers(1, 8)))
        ]
        if parse_fasta(format_fasta(records)) == records:
            fasta_ok += 1

    ok = model_ok == 100 and fasta_ok == 100
    report(7, "bit-exact model and FASTA round-trips", ok,
           f"{model_ok}/100 model sets, {fasta_ok}/100 record sets")


def test_acceptance_8_end_to_end_determinism(tmp_path):
    chains = planted_dataset(20, 40, seed=21, stay=0.9)
    data_text = format_labeled_dataset(chains[:15])
    fasta_text = format_fasta([FastaRecord(r.id, r.sequence)
                               for r in chains[15:]])

    def run(workdir):
        workdir.mkdir()
        data = workdir / "train.txt"
        fasta = workdir / "in.fa"
        data.write_text(data_text, encoding="utf-8")
        fasta.write_text(fasta_text, encoding="utf-8")
        model_path = workdir / "models.txt"
        pred_path = workdir / "pred.txt"
        assert main(["train", "--data", str(data), "--out", str(model_path),
                     "--window", "2", "--iters", "4", "--seed", "3"]) == 0
        assert main(["predict", "--models", str(model_path),
                     "--fasta", str(fasta), "--out", str(pred_path),
                     "--window", "2"]) == 0
        return model_path.read_bytes(), pred_path.read_bytes()

    models_a, preds_a = run(tmp_path / "a")
    models_b, preds_b = run(tmp_path / "b")
    ok = models_a == models_b and preds_a == preds_b
    report(8, "train/predict runs are byte-identical", ok,
           f"model file {len(models_a)} bytes, predictions {len(preds_a)} bytes")
