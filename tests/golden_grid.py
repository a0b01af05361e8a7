"""The golden byte gate: one grid of ``ssph predict``, ``ssph eval`` and
``predict_structures`` runs on the inputs committed under ``tests/golden/``,
each output reduced to a sha256 digest. ``tests/test_golden.py`` compares
the digests with ``tests/golden/digests.json``. Regenerate them with

    PYTHONPATH=src python tests/golden_grid.py

and the committed inputs too (every digest then moves) with ``--inputs``.
A change that moves output on purpose regenerates the digests and lists the
moved cases. The script refuses to write digests when a window whose label
is used is won by a relative score gap of 1e-9 or less (windows every model
scores -inf excepted): such a label can flip with the floating-point
environment, so its bytes would not be a fair gate.

The model sets are the leak-0 planted models, whose windows have a unique
finite winner or score -inf under every model, and two committed random
sets. Planted models with leak > 0 are left out: their H and E models
mirror each other, so they give exact ties and one-ulp wins.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import ssph.predictor
from ssph import (FastaRecord, ClassModelSet, encode_residues, format_fasta,
                  format_label_records, format_models, fold_residues,
                  new_random_hmm, planted_dataset, planted_models,
                  predict_structures, read_models, write_models)
from ssph.cli import main
from ssph.hmm import _log_params, _window_scores

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
FASTA = GOLDEN / "chains.fa"
TRUTH = GOLDEN / "chains.truth"

LENGTHS = (1, 2, 3, 4, 5, 8, 10, 11, 12, 13, 20, 40, 77, 200, 600)
# Random class models of 2 to 4 states, by class: (states, seed).
RANDOM_SETS = {"random_a": {"H": (2, 1), "E": (3, 2), "C": (4, 3)},
               "random_b": {"H": (4, 4), "E": (2, 5), "C": (3, 6)}}
WINDOWS = range(1, 8)
BOUNDARY_LABELS = "HEC"
# CHUNK_WINDOWS values, each with the half-widths it labels at. Every slice
# costs one encode and one kernel call per class however few windows it
# holds, so the small slices label only the chains shorter than SHORT
# residues, at three half-widths, to keep the gate to a few seconds.
CHUNKS = {8192: WINDOWS, 7: (1, 3, 6), 1: (1, 3, 6)}
SHORT = 100
TIE_GAP = 1e-9


def write_inputs(target: Path = GOLDEN) -> None:
    """Write the FASTA, truth and random model files from seeded draws into
    ``target``. Some chains are lower or mixed case, the 40-residue one
    carries B, Z, U and inner whitespace, and the two longest are wrapped."""
    chains = [planted_dataset(1, n, seed=700 + n)[0] for n in LENGTHS]
    fasta = []
    for rec in chains:
        seq = rec.sequence
        n = len(seq)
        if n in (8, 13, 77):
            seq = seq.lower()
        elif n == 200:
            seq = "".join(seq[i:i + 10].lower() if i % 20 else seq[i:i + 10]
                          for i in range(0, n, 10))
        elif n == 40:
            seq = (seq[:5] + "B" + seq[6:17] + "Z" + seq[18:29] + "U"
                   + seq[30:33] + " " + seq[33:36] + "\t" + seq[36:])
        if n >= 200:
            seq = "\n".join(seq[i:i + 60] for i in range(0, n, 60))
        fasta.append(FastaRecord(rec.id.replace("chain0000", f"g{n:03d}"),
                                 seq))
    (target / FASTA.name).write_text(format_fasta(fasta), encoding="utf-8")
    (target / TRUTH.name).write_text(format_label_records(
        [(rec.id, chain.labels) for rec, chain in zip(fasta, chains)]),
        encoding="utf-8")
    for name, spec in RANDOM_SETS.items():
        models = ClassModelSet({label: new_random_hmm(states, 21, seed)
                                for label, (states, seed) in spec.items()})
        (target / f"{name}.txt").write_text(format_models(models),
                                            encoding="utf-8")


def model_sets() -> dict[str, ClassModelSet]:
    sets = {"planted0": planted_models(0.0)}
    sets.update((name, read_models(GOLDEN / f"{name}.txt"))
                for name in RANDOM_SETS)
    return sets


def raw_sequences() -> list[str]:
    """Each FASTA record's text after its header line, newlines, case and
    inner whitespace included, as ``predict_structures`` would be handed
    it by a caller that does not fold."""
    return [block.split("\n", 1)[1]
            for block in FASTA.read_text(encoding="utf-8").split(">")[1:]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise RuntimeError(f"ssph {' '.join(argv)} failed")


def digests(workdir: Path) -> dict[str, str]:
    """The sha256 of every output of the grid, keyed by case name."""
    out = {}
    models_file, pred = workdir / "models.txt", workdir / "pred.txt"
    report, csv = workdir / "report.txt", workdir / "report.csv"
    sequences = raw_sequences()
    short = [s for s in sequences if len(fold_residues(s)) < SHORT]
    for name, models in model_sets().items():
        write_models(models, models_file)
        for w in WINDOWS:
            for label in BOUNDARY_LABELS:
                case = f"{name}/w{w}/{label}"
                _cli("predict", "--models", str(models_file), "--fasta",
                     str(FASTA), "--out", str(pred), "--window", str(w),
                     "--boundary-label", label)
                out[f"predict/{case}"] = _sha(pred.read_bytes())
                for mode in ("include", "no-include"):
                    _cli("eval", "--pred", str(pred), "--truth", str(TRUTH),
                         "--window", str(w), f"--{mode}-boundary-in-eval",
                         "--out", str(report), "--csv", str(csv))
                    out[f"eval-{mode}/{case}/text"] = _sha(report.read_bytes())
                    out[f"eval-{mode}/{case}/csv"] = _sha(csv.read_bytes())
        saved = ssph.predictor.CHUNK_WINDOWS
        try:
            for chunk, half_widths in CHUNKS.items():
                ssph.predictor.CHUNK_WINDOWS = chunk
                for w in half_widths:
                    labels = predict_structures(
                        models, sequences if chunk == 8192 else short, w,
                        BOUNDARY_LABELS[w % 3])
                    out[f"predict_structures/{name}/chunk{chunk}/w{w}"] = \
                        _sha("\n".join(labels).encode("ascii"))
        finally:
            ssph.predictor.CHUNK_WINDOWS = saved
    return out


def near_ties() -> dict[str, int]:
    """Per (model set, half-width), the number of windows inside one
    sequence whose best class score beats the runner-up by a relative gap
    of at most :data:`TIE_GAP`, leaving out windows every model scores
    -inf; only the cases that have one."""
    found = {}
    sequences = [fold_residues(s) for s in raw_sequences()]
    for name, models in model_sets().items():
        params = [_log_params(models[label]) for label in "HEC"]
        for w in WINDOWS:
            width = 2 * w + 1
            count = 0
            for seq in sequences:
                if len(seq) < width:
                    continue
                symbols = encode_residues(seq)
                scores = np.sort([_window_scores(*p, symbols, width)
                                  for p in params], axis=0)
                best, second = scores[-1], scores[-2]
                with np.errstate(invalid="ignore"):
                    tight = np.isfinite(best) \
                        & (best - second <= TIE_GAP * np.abs(best))
                count += int(tight.sum())
            if count:
                found[f"{name}/w{w}"] = count
    return found


if __name__ == "__main__":
    if "--inputs" in sys.argv[1:]:
        write_inputs()
    ties = near_ties()
    if ties:
        sys.exit(f"refusing to write {DIGESTS.name}: near-tied windows "
                 f"{ties}")
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
