"""Byte-level fingerprints of suite reports and CLI artifacts.  Each digest
is the sha256 of a canonical report at a fixed seed; a change to one means a
report changed, which must be deliberate and explained.
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


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("star-laws", "274e55a8722a4cd0312509ae44f506a431cda6961c4a2bffbdd1dff55ed3c247"),
        ("twins-amalgam", "df1f60dde5a9e62bf197f5e93278315bfb55df82b49ac13415eb54167f32bc38"),
        ("insertion", "2ab63fc6a292b9c652b1259cafa20cb0438144c9c5d0d92d30ea67fd30eae3d1"),
        ("closure-laws", "90111706fa86382076bc29c16cd69f1993a2bd6536cfc2e679bf8164a2325f4d"),
        ("space-checks", "93ad5942c6e1760546835bf1bc363a15b88e841436f683954ef8811e5db97e14"),
        ("fu-laws", "925e89802a5512ae55c427512f78725a7aa12a326db651cf033bf54fa89bcb65"),
    ],
)
def test_default_suite_report(suite, digest):
    report = run_suite(suite, seed=0)
    assert sha256(formats.to_text(report.as_dict())) == digest


def test_poset_laws_report(poset_laws_report):
    # Shared with the acceptance gate, so pinned at its seed rather than 0.
    assert sha256(formats.to_text(poset_laws_report.as_dict())) == (
        "f147db6fbbe76735486b716edf769464d42fd4975a0b17b08a8c41aed293263e"
    )


def test_gen_f_kappa_64(capsys):
    assert main(["gen-f", "--kappa", "64", "--density", "0.5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "d0b343b4a51bb18993055aaafa52e95b41287ab3b27e96c6d2d5aa94814312b2"
