"""Reduction of eight-letter DSSP secondary-structure codes to {H, E, C}."""

from .errors import UnknownDsspCode

DSSP_CODES = "HGIEBTSC"

# The three classes, one HMM each. This order is the model-file block order,
# the confusion-matrix order, and the order training seeds the class models
# (seed, seed+1, seed+2), so changing it changes every output.
CLASS_ORDER = "HEC"

# Helix <- {H, G, I}; strand <- {E, B}; coil <- {T, S, C}.
_REDUCTION = {
    "H": "H", "G": "H", "I": "H",
    "E": "E", "B": "E",
    "T": "C", "S": "C", "C": "C",
}
_REDUCE = str.maketrans(_REDUCTION)


def reduce_dssp(label: str) -> str:
    """Map one DSSP code to its three-class label. Case-sensitive: lowercase
    input is rejected rather than silently folded."""
    try:
        return _REDUCTION[label]
    except KeyError:
        raise UnknownDsspCode(f"{label!r} is not a DSSP code") from None


def reduce_dssp_string(labels: str) -> str:
    """Reduce every character of a DSSP label string, reporting the first
    offending character with its position."""
    reduced = labels.translate(_REDUCE)  # unknown characters pass unchanged
    rest = reduced.lstrip(CLASS_ORDER)
    if rest:
        raise UnknownDsspCode(f"position {len(reduced) - len(rest)}: "
                              f"{rest[0]!r} is not a DSSP code")
    return reduced
