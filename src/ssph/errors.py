"""Exception types shared across the package."""


class SsphError(Exception):
    """Base class for all errors raised by this package."""


class EmptyObservation(SsphError):
    """Decoding or scoring was asked to run on an empty observation sequence."""


class SymbolOutOfRange(SsphError):
    """An observation symbol index falls outside the model's alphabet."""


class NoTrainingData(SsphError):
    """Baum-Welch was given an empty training collection."""


class UnknownDsspCode(SsphError):
    """A label character is not one of the eight DSSP codes."""


class EmptySequence(SsphError):
    """The predictor was given an empty residue sequence."""


class MissingHeader(SsphError):
    """Sequence data appeared before any '>' header line."""


class EmptyRecord(SsphError):
    """A record is missing its sequence (or label) lines."""


class LengthMismatch(SsphError):
    """Paired sequence and label strings have different lengths."""


class ModelFormatError(SsphError):
    """A model file is malformed; the message names the offending line."""


class NoResidues(SsphError):
    """An evaluation was requested over zero scored residues."""


class ClassHasNoData(SsphError):
    """A secondary-structure class has no training windows."""


class RecordMismatch(SsphError):
    """Prediction and truth files disagree on record ids or counts."""
