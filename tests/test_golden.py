"""The golden byte gate: every output of the grid in ``golden_grid.py``
must hash to its digest in ``tests/golden/digests.json``. A failure names
the moved cases; a change that moves output on purpose regenerates the
digests with ``python tests/golden_grid.py`` and lists them. The committed
inputs must also come back byte for byte from their seeded draws, which pins
the draws of ``planted_dataset`` and ``new_random_hmm``."""

import json

from golden_grid import DIGESTS, GOLDEN, digests, near_ties, write_inputs
from helpers import kernel_in_use, kernels


def test_golden_outputs_are_byte_identical(tmp_path):
    # Once per kernel: each must give every byte.
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name, kernel in kernels():
        with kernel_in_use(kernel):
            actual = digests(tmp_path)
        assert sorted(actual) == sorted(expected)
        moved = sorted(case for case in expected
                       if actual[case] != expected[case])
        assert not moved, f"{name} kernel: {len(moved)} of {len(expected)} " \
                          f"golden cases moved: {moved}"


def test_golden_windows_have_no_near_ties():
    # The labels the digests pin do not hang on the last bits of a score.
    assert near_ties() == {}


def test_golden_inputs_regenerate_byte_for_byte(tmp_path):
    write_inputs(tmp_path)
    for name in ("chains.fa", "chains.truth", "random_a.txt", "random_b.txt"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), name
