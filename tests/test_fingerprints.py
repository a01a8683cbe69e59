"""Byte-level fingerprints of suite reports and CLI artifacts.  Each digest
is the sha256 of a canonical report at a fixed seed; a change to one means a
report changed, which must be deliberate and explained.
"""

import hashlib
import json
import random

import pytest

from scatterlab import formats, generic, sampling, universe
from scatterlab.cli import main
from scatterlab.poset import Condition
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


@pytest.fixture
def cli_inputs(tmp_path):
    """Small fixed CLI input files, made from seeded generators."""
    f = universe.random_pair_function(12, 0.5, 3)
    f2, p, q = sampling.good_twin_pair(f, random.Random(5), 5)
    _, _, other = sampling.good_twin_pair(f, random.Random(3), 5)
    # Neighbourhood sets whose stars are nonempty, so that covers matter.
    H = {0: {0}, 1: {1}, 2: {0, 2}, 3: {1, 3}, 4: {0, 2, 4}, 5: {0, 1, 5}, 6: {2, 3, 6}, 7: {7}}
    covers = {(2, 5): {0}, (2, 6): {0}, (3, 5): {1}, (3, 6): {1}, (4, 5): {0}, (4, 6): {2}}
    i = {(x, y): covers.get((x, y), set()) for x in range(8) for y in range(x + 1, 8)}
    space = generic.SpaceModel(8, H, i)
    bad_space = generic.SpaceModel(8, H, {**i, (3, 6): set(), (4, 6): set()})
    broken = json.loads(formats.dump_condition(Condition(range(8), H, i)))
    broken["h"] = broken["h"][1:]  # h undefined at 0, which still sits in i-values
    schedule = sampling.space_schedule(f, random.Random(7), 12, nbhd_goals=4)
    texts = {
        "f": formats.dump_pair_function(f2),
        "p": formats.dump_condition(p),
        "q": formats.dump_condition(q),
        "other": formats.dump_condition(other),
        "broken": formats.to_text(broken),
        "schedule": formats.dump_schedule(schedule),
        "space": formats.dump_space(space),
        "bad_space": formats.dump_space(bad_space),
    }
    paths = {"out": str(tmp_path / "out.json")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


# (argv, exit code, sha256 of stdout, sha256 of the --out file or None)
CLI_ARTIFACTS = {
    "gen-f": (
        ["gen-f", "--kappa", "6", "--seed", "2"],
        0,
        "9dafc9b2504950c826b3617d425ef1a54aa09b873c5e863144d4717b65fc9a8b",
        None,
    ),
    "gen-f-out": (
        ["gen-f", "--kappa", "6", "--seed", "2", "--out", "{out}"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9dafc9b2504950c826b3617d425ef1a54aa09b873c5e863144d4717b65fc9a8b",
    ),
    "props": (
        ["props", "--suite", "star-laws"],
        0,
        "8d9147740e7c3863717d2f61c3370f5d753c6ca169d6148dc70eb370264915ef",
        None,
    ),
    "validate": (
        ["validate", "--f", "{f}", "--cond", "{p}"],
        0,
        "87e2b90e05286c60c387f60cd1bfc9909b1f50655d5c3592cc544d8049f7ba9b",
        None,
    ),
    "validate-invalid": (
        ["validate", "--f", "{f}", "--cond", "{broken}"],
        1,
        "156107184e4c123e433ce9b30787b704714951e49e29070ea1b3d2d3a866b02a",
        None,
    ),
    "twins": (
        ["twins", "--f", "{f}", "--p", "{p}", "--q", "{q}"],
        0,
        "970691a4edecdb3af55288fe9880e1cd2fb95f7a7a6a36aa6f9348263c30d64b",
        None,
    ),
    "twins-not-twins": (
        ["twins", "--f", "{f}", "--p", "{p}", "--q", "{other}"],
        1,
        "8f2d5f3c76b3a47fa67a17999cf5b01c8c93e27cca824f7e605c0b9392c103b8",
        None,
    ),
    "amalgamate": (
        ["amalgamate", "--f", "{f}", "--p", "{p}", "--q", "{q}"],
        0,
        "25a3397601da8bbd3380c0dfda9a3ca9a7a551f844776765b0c8da2355b6e802",
        None,
    ),
    "amalgamate-out": (
        ["amalgamate", "--f", "{f}", "--p", "{p}", "--q", "{q}", "--out", "{out}"],
        0,
        "e5f83f6cf3f68b4a84c89314bb1d892f18a5eb7d72554cdba84f6c89053a047f",
        "2c9b2607c5ae223c54bfd98aa570a41f838620a41fead62c3c0ace4dcd497558",
    ),
    "amalgamate-not-twins": (
        ["amalgamate", "--f", "{f}", "--p", "{p}", "--q", "{other}"],
        1,
        "62985fed50bbe437d6c181e70199ee1b4d445e8c3dc674b4c72e894e92b78437",
        None,
    ),
    "close": (
        ["close", "--f", "{f}", "--base", "7,9", "--partners", "11"],
        0,
        "7b5e8bd5f3de4bba8b8ead8f5bac8cc362cd104a28260bc45b53cbf34a057789",
        None,
    ),
    "lower-bound": (
        ["lower-bound", "--f", "{f}", "--groups", "5|6|7,8|9|10|11", "--bound", "0,1", "--n", "2"],
        0,
        "cd5c17c3f6f42a0a09be2e4899fc18e5c5ec509f72d286ee67429f461ee5d1b5",
        None,
    ),
    "sample-space": (
        ["sample-space", "--f", "{f}", "--schedule", "{schedule}", "--seed", "4"],
        0,
        "1a6ce91be8f9ffab220ae56915fed4f7355311f727e8f9448a08df8e0ade7e2b",
        None,
    ),
    "sample-space-out": (
        ["sample-space", "--f", "{f}", "--schedule", "{schedule}", "--seed", "4", "--out", "{out}"],
        0,
        "1a6ce91be8f9ffab220ae56915fed4f7355311f727e8f9448a08df8e0ade7e2b",
        "82e5e6afe6316525710d3f0799f4a76da1098febf4523d0cc54108dbf0a6ccbc",
    ),
    "check-space": (
        ["check-space", "--space", "{space}"],
        0,
        "1ddc2840db7f37fa501ca48c36523fe71067d5af2cd3633b4fc0dd5b6ef85705",
        None,
    ),
    "check-space-failing": (
        ["check-space", "--space", "{bad_space}"],
        1,
        "acc5f797c256aa91c590ee53bbab75e28d0ee7b3d13967c936f30e3e0cc82476",
        None,
    ),
    "fu-sim": (
        ["fu-sim", "--space", "{space}", "--A", "2,3,4,6", "--alpha", "6", "--blocks", "|2|3"],
        0,
        "9643d7e19e1e0d925137ba0864f8ead6aeef0c40c25c9cf0846613c1e910df4d",
        None,
    ),
}


@pytest.mark.parametrize(
    "name, quiet",
    [pytest.param(name, quiet, id=f"{name}-quiet" if quiet else name)
     for name in sorted(CLI_ARTIFACTS) for quiet in (False, True)],
)
def test_cli_artifact(name, quiet, cli_inputs, capsys):
    # --quiet empties stdout and changes neither the exit code nor the --out file.
    argv, code, stdout_digest, out_digest = CLI_ARTIFACTS[name]
    assert main([arg.format(**cli_inputs) for arg in argv] + ["--quiet"] * quiet) == code
    out = capsys.readouterr().out
    assert (out == "") if quiet else (sha256(out) == stdout_digest)
    if out_digest is not None:
        with open(cli_inputs["out"]) as handle:
            assert sha256(handle.read()) == out_digest
