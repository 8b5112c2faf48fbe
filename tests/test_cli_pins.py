"""Byte-level pins of the `verify` and `cube-verify` commands.

Each digest is sha256 over the repr of one record per call: the argv, the
exit code, stdout and stderr, and for an accepted candidate the text of the
matrix it emits as JSON and as CSV.  The corpus is every identity-free
subset (for `verify`) or cube assignment (for `cube-verify`) of two small
groups, with and without --quasi, plus the usage errors and --help of both
subcommands: any change to a payload, an emitted matrix, an error line or
the usage text changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from frameforge import Subset, parse_group
from frameforge.cli import main

from conftest import all_cube_assignments


@pytest.fixture
def record(capsys, tmp_path, monkeypatch):
    """argv -> (argv, exit code, stdout, stderr, emitted files); an accepted
    candidate is run again to emit its matrix as JSON and as CSV."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def run(argv):
        code, out, err = call(argv)
        files = []
        if code == 0 and "--help" not in argv:
            for name in ("matrix.json", "matrix.csv"):
                path = tmp_path / name
                files.append((call([*argv, "--emit-matrix", str(path)]), path.read_text()))
        return argv, code, out, err, files

    return run


def _digest(records) -> str:
    return hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()


def _labels(group, subset: Subset) -> str:
    """The members' labels, to pass as --set=LABELS: a Q8 label list such as
    "-i,j" would otherwise read as an option."""
    return ",".join(subset.labels(group))


VERIFY_DIGESTS = {  # C5 accepts quasi-signature sets, which the order-8 groups lack
    "C5": "dcda678064a51e13a4d5a757d4de5424085696ad75911b36c7228c84958d287d",
    "C8": "9d9d15461dec164a973bdf883e208e11782c8cf4840fde49660154446ab84073",
    "Q8": "e6d3198d66b45aeb1abcc1f07eef38a08d36c287d72e9dfcb662f3217df44c70",
}

CUBE_DIGESTS = {
    "C7": "0e5ba314df5f07d921eb7170081721ac6bfea05254d021226f219ca0f725a208",
    "Q8": "2ab853922c935db81aeea5e727cb28c2c6af1bc02188962954b27801f6c3ef87",
}

USAGE_DIGEST = "105174b2518abb4a91e5824cc0f0f32e19b4defed46bc90515f4076a5a0e0099"

_USAGE = [
    ["verify", "--help"],
    ["cube-verify", "--help"],
    ["verify", "--group", "C5"],
    ["verify", "--set", "1,4"],
    ["verify", "--group", "C5", "--set", "1,4", "--t", "2,3"],
    ["verify", "--group", "C5", "--s", "1,4"],
    ["verify", "--group", "S3", "--set", "1"],
    ["verify", "--group", "C5", "--set", "9"],
    ["verify", "--group", "C4xC4", "--set", "(1,0)),(0,1)"],
    ["verify", "--group", "C5", "--set", "0,1,4"],
    ["cube-verify", "--group", "Q8"],
    ["cube-verify", "--s", "i,-i"],
    ["cube-verify", "--group", "Q8", "--set", "i,-i"],
    ["cube-verify", "--group", "S3", "--s", "1"],
    ["cube-verify", "--group", "Q8", "--s", "q"],
    ["cube-verify", "--group", "Q8", "--s", "i,-i", "--t", "i"],
    ["cube-verify", "--group", "Q8", "--s", "1,i"],
    ["cube-verify", "--group", "C7", "--s", "1,6", "--t", "(2"],
    ["cube-verify", "--group", "Q8", "--s", "-i,i"],
]


@pytest.mark.parametrize("descriptor", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(record, descriptor):
    group = parse_group(descriptor)
    records = []
    for bits in range(0, 1 << group.order, 2):  # every subset without the identity
        labels = _labels(group, Subset(group.order, bits))
        for quasi in ([], ["--quasi"]):
            records.append(record(["verify", "--group", descriptor, f"--set={labels}", *quasi]))
    assert sum(r[1] == 0 for r in records) > 0
    assert _digest(records) == VERIFY_DIGESTS[descriptor]


@pytest.mark.parametrize("descriptor", sorted(CUBE_DIGESTS))
def test_cube_verify_output_is_pinned(record, descriptor):
    group = parse_group(descriptor)
    records = []
    for s, t in all_cube_assignments(group):
        for quasi in ([], ["--quasi"]):
            argv = ["cube-verify", "--group", descriptor, f"--s={_labels(group, s)}"]
            records.append(record([*argv, f"--t={_labels(group, t)}", *quasi]))
            if not t:  # no --t is the empty T
                without = record([*argv, *quasi])
                assert without[1:] == records[-1][1:]
    assert sum(r[1] == 0 for r in records) > 0
    assert _digest(records) == CUBE_DIGESTS[descriptor]


def test_verify_usage_is_pinned(record):
    records = [record(argv) for argv in _USAGE]
    assert [r[1] for r in records][:2] == [0, 0]
    assert _digest(records) == USAGE_DIGEST
