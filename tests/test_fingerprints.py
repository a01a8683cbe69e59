"""Byte-level fingerprints of outputs that depend on the pair-function write
path.  Each digest is the sha256 of a canonical report at a fixed seed; a
change to one means a report changed, which must be deliberate and explained.
"""

import hashlib

import pytest

from scatterlab import formats
from scatterlab.cli import main
from scatterlab.suites import run_suite


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "suite, trials, digest",
    [
        ("twins-amalgam", 40, "5be48d5d78c17ff6b9c2a1f22cf988c790e4a5b26786d45449bd85bf5d7f0dac"),
        ("insertion", 20, "0bcdc536d4f8bf19c5d664c35c7e55683e86f253614f65bccd0a3cd4ad9db5f2"),
    ],
)
def test_kappa_64_suite_report(suite, trials, digest):
    report = run_suite(suite, kappa=64, trials=trials, seed=0)
    assert sha256(formats.to_text(report.as_dict())) == digest


def test_gen_f_kappa_64(capsys):
    assert main(["gen-f", "--kappa", "64", "--density", "0.5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "d0b343b4a51bb18993055aaafa52e95b41287ab3b27e96c6d2d5aa94814312b2"
