"""Protein secondary structure prediction with per-class hidden Markov models.

Three discrete-emission HMMs (helix, strand, coil) score a sliding window
around each residue by Viterbi decoding; the class with the highest window
score becomes that residue's predicted label.
"""

from .dssp import CLASS_ORDER, DSSP_CODES, reduce_dssp, reduce_dssp_string
from .hmm import (Hmm, LikelihoodTrace, ViterbiResult, backward_log_likelihood,
                  baum_welch, forward_log_likelihood, new_random_hmm,
                  sequence_score, viterbi)
from .io import (FastaRecord, LabeledRecord, format_fasta,
                 format_label_records, format_labeled_dataset, format_models,
                 parse_fasta, parse_label_records, parse_labeled_dataset,
                 parse_models, read_models, write_models)
from .metrics import (confusion, format_report, format_report_csv,
                      per_class_recall, q3)
from .predictor import (ALPHABET, ClassModelSet, encode_residues,
                        fold_residues, predict_structure,
                        predict_structures)
from .synthetic import planted_dataset, planted_models, sample_observations
from .training import class_windows, train_models

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "CLASS_ORDER",
    "ClassModelSet",
    "DSSP_CODES",
    "FastaRecord",
    "Hmm",
    "LabeledRecord",
    "LikelihoodTrace",
    "ViterbiResult",
    "backward_log_likelihood",
    "baum_welch",
    "class_windows",
    "confusion",
    "encode_residues",
    "fold_residues",
    "format_fasta",
    "format_label_records",
    "format_labeled_dataset",
    "format_models",
    "format_report",
    "format_report_csv",
    "forward_log_likelihood",
    "new_random_hmm",
    "parse_fasta",
    "parse_label_records",
    "parse_labeled_dataset",
    "parse_models",
    "per_class_recall",
    "planted_dataset",
    "planted_models",
    "predict_structure",
    "predict_structures",
    "q3",
    "read_models",
    "reduce_dssp",
    "reduce_dssp_string",
    "sample_observations",
    "sequence_score",
    "train_models",
    "viterbi",
    "write_models",
]
