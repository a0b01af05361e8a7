"""The golden byte gate: every output of the grid in ``golden_grid.py``
must hash to its digest in ``tests/golden/digests.json``. A failure names
the moved cases; a change that moves output on purpose regenerates the
digests with ``python tests/golden_grid.py`` and lists them."""

import json

from golden_grid import DIGESTS, digests, near_ties


def test_golden_outputs_are_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    moved = sorted(case for case in expected if actual[case] != expected[case])
    assert not moved, f"{len(moved)} of {len(expected)} golden cases moved: " \
                      f"{moved}"


def test_golden_windows_have_no_near_ties():
    # The labels the digests pin do not hang on the last bits of a score.
    assert near_ties() == {}
