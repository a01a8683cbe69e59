import ast
import json
from pathlib import Path

import pytest

from scatterlab import cli
from scatterlab.cli import main

WORKED_F = {"kappa": 4, "f": [[1, 2, [0]]]}
WORKED_P = {"a": [0, 1], "h": [[0, [0]], [1, [0, 1]]], "i": [[0, 1, []]]}
WORKED_Q = {"a": [0, 2], "h": [[0, [0]], [2, [0, 2]]], "i": [[0, 2, []]]}
BAD_IV = {
    "a": [0, 1, 2],
    "h": [[0, [0]], [1, [0, 1]], [2, [0, 2]]],
    "i": [[0, 1, []], [0, 2, []], [1, 2, []]],
}


def write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestGenF:
    def test_writes_file_and_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-f", "--kappa", "8", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["gen-f", "--kappa", "8", "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_kappa_one_empty(self, tmp_path, capsys):
        code, out = run_main(["gen-f", "--kappa", "1"], capsys)
        assert code == 0
        assert json.loads(out)["f"] == []

    def test_density_one_full(self, tmp_path, capsys):
        code, out = run_main(["gen-f", "--kappa", "4", "--density", "1.0"], capsys)
        doc = json.loads(out)
        assert [2, 3, [0, 1]] in doc["f"]

    def test_kappa_cap(self, capsys):
        assert main(["gen-f", "--kappa", "65"]) == 2


class TestValidate:
    def test_valid_condition(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        c = write(tmp_path, "p.json", WORKED_P)
        code, out = run_main(["validate", "--f", f, "--cond", c], capsys)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_condition_lists_clause(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        c = write(tmp_path, "bad.json", BAD_IV)
        code, out = run_main(["validate", "--f", f, "--cond", c], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"][0]["clause"] == "iv"
        assert doc["violations"][0]["at"] == [1, 2]

    def test_malformed_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        assert main(["validate", "--f", f, "--cond", str(bad)]) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert main(["validate", "--f", f, "--cond", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        assert main(["validate", "--f", f, "--cond", str(tmp_path / "absent.json")]) == 2


class TestAmalgamate:
    def test_worked_pair(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        p = write(tmp_path, "p.json", WORKED_P)
        q = write(tmp_path, "q.json", WORKED_Q)
        out = tmp_path / "r.json"
        code, text = run_main(
            ["amalgamate", "--f", f, "--p", p, "--q", q, "--out", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["below_p"] and doc["below_q"] and doc["result_valid"]
        r = json.loads(out.read_text())
        assert r["a"] == [0, 1, 2]
        assert [1, 2, [0]] in r["i"]

    def test_p_plus_p_is_p(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        p = write(tmp_path, "p.json", WORKED_P)
        out = tmp_path / "r.json"
        code, _ = run_main(["amalgamate", "--f", f, "--p", p, "--q", p, "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text()) == WORKED_P

    def test_non_twins_fail_with_clause(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 4, "f": []})
        p = write(tmp_path, "p.json", WORKED_P)
        q = write(tmp_path, "q.json", WORKED_Q)
        code, out = run_main(["amalgamate", "--f", f, "--p", p, "--q", q], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["good_twins"] is False
        assert any(c.startswith("3") for c in doc["failed_clauses"])


class TestTwins:
    def test_good_pair_reports_isomorphism(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        p = write(tmp_path, "p.json", WORKED_P)
        q = write(tmp_path, "q.json", WORKED_Q)
        code, out = run_main(["twins", "--f", f, "--p", p, "--q", q], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["twins"] and doc["good_twins"]
        assert doc["isomorphism"] == [[0, 0], [1, 2]]

    def test_empty_twins_report_an_empty_isomorphism(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", WORKED_F)
        empty = write(tmp_path, "e.json", {"a": [], "h": [], "i": []})
        code, out = run_main(["twins", "--f", f, "--p", empty, "--q", empty], capsys)
        assert code == 0
        assert json.loads(out)["isomorphism"] == []
        single = write(tmp_path, "s.json", {"a": [0], "h": [[0, [0]]], "i": []})
        p = write(tmp_path, "p.json", WORKED_P)
        code, out = run_main(["twins", "--f", f, "--p", single, "--q", p], capsys)
        assert code == 1
        assert json.loads(out)["isomorphism"] is None


class TestCloseAndLowerBound:
    def test_close(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 6, "f": [[4, 5, [1, 2]]]})
        code, out = run_main(["close", "--f", f, "--base", "4", "--partners", "5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["closure"] == [1, 2, 4]
        assert doc["iterations"] == 1

    def test_lower_bound_found(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 7, "f": [[3, 4, [0]], [4, 5, [0]]]})
        code, out = run_main(
            ["lower-bound", "--f", f, "--groups", "3|4|5", "--bound", "0", "--n", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["indices"] == [0, 1]

    def test_lower_bound_none(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 7, "f": []})
        code, out = run_main(
            ["lower-bound", "--f", f, "--groups", "3|4|5", "--bound", "0", "--n", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["indices"] is None

    def test_lower_bound_overlap_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 7, "f": []})
        assert main(["lower-bound", "--f", f, "--groups", "3,4|4", "--bound", "", "--n", "1"]) == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_lower_bound_n_below_one_is_an_input_error(self, n, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 8, "f": []})
        code = main(["lower-bound", "--f", f, "--groups", "5,6|7", "--n", n])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: --n must be at least 1, got {n}\n"


class TestSampleSpace:
    def test_point_schedule(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 5, "f": [[2, 3, [0, 1]], [3, 4, [1]]]})
        sched = write(tmp_path, "s.json", [{"point": a} for a in range(5)])
        out = tmp_path / "space.json"
        code, text = run_main(
            ["sample-space", "--f", f, "--schedule", sched, "--out", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["star_containment"] and doc["loc_comp_hypothesis"] and doc["subbase_compactness"]
        space = json.loads(out.read_text())
        assert [a for a, _ in space["H"]] == list(range(5))

    def test_empty_schedule_discrete(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 3, "f": []})
        sched = write(tmp_path, "s.json", [])
        code, text = run_main(["sample-space", "--f", f, "--schedule", sched], capsys)
        assert code == 0
        doc = json.loads(text)
        assert doc["cb_rank_histogram"] == {"0": 3}

    def test_unsatisfiable_goal(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 5, "f": []})
        sched = write(tmp_path, "s.json", [{"nbhd": {"beta": 3, "b": [], "Z": [1]}}])
        assert main(["sample-space", "--f", f, "--schedule", sched]) == 1


class TestCheckSpaceAndFuSim:
    def make_space(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 6, "f": [[3, 5, [0, 1, 2]], [4, 5, [1, 2]]]})
        sched = write(
            tmp_path,
            "s.json",
            [{"point": a} for a in (0, 3, 5)]
            + [{"nbhd": {"beta": 5, "b": [0], "Z": [1, 2]}}]
            + [{"point": a} for a in (1, 2, 4)],
        )
        out = tmp_path / "space.json"
        code, _ = run_main(
            ["sample-space", "--f", f, "--schedule", sched, "--seed", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        return str(out)

    def test_check_space(self, tmp_path, capsys):
        space = self.make_space(tmp_path, capsys)
        code, out = run_main(["check-space", "--space", space], capsys)
        assert code == 0
        assert json.loads(out)["max_invariant_violations"] == []

    def test_fu_sim(self, tmp_path, capsys):
        space = self.make_space(tmp_path, capsys)
        code, out = run_main(
            ["fu-sim", "--space", space, "--A", "0,1,2,5", "--alpha", "5", "--blocks", "|0"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suffix_convergence"] is True
        assert len(doc["acquired"]) >= 1


class TestProps:
    def test_star_suite_passes(self, capsys):
        code, out = run_main(["props", "--suite", "star-laws", "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(v["fail"] == 0 for v in doc["outcome"].values())
        assert doc["witnesses"] == []

    def test_unknown_suite(self, capsys):
        assert main(["props", "--suite", "nonsense"]) == 2

    def test_star_suite_ignores_trials(self, capsys):
        _, out1 = run_main(["props", "--suite", "star-laws", "--trials", "3"], capsys)
        _, out2 = run_main(["props", "--suite", "star-laws"], capsys)
        assert json.loads(out1)["outcome"] == json.loads(out2)["outcome"]

    def test_trials_respected(self, capsys):
        code, out = run_main(
            ["props", "--suite", "twins-amalgam", "--trials", "7", "--seed", "3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"]["result-valid"]["pass"] == 7

    def test_given_f_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"kappa": 12, "f": [[4, 5, [0, 1]], [5, 8, [2]]]})
        code, out = run_main(
            ["props", "--suite", "twins-amalgam", "--trials", "5", "--f", f], capsys
        )
        assert code == 0
        assert json.loads(out)["inputs"]["f"] != "random"


@pytest.mark.parametrize("density", ["2", "-0.1", "nan"])
@pytest.mark.parametrize(
    "command", [["gen-f"], ["props", "--suite", "twins-amalgam", "--trials", "2"]], ids=["gen-f", "props"]
)
def test_bad_density_is_an_input_error(command, density, capsys):
    code = main([*command, "--density", density])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--suite", "twins-amalgam", "--trials", "-1"], "--trials must be at least 0"),
        (["--suite", "twins-amalgam", "--trials", "2", "--jobs", "-3"], "--jobs must be at least 1"),
        (["--suite", "twins-amalgam", "--trials", "2", "--jobs", "0"], "--jobs must be at least 1"),
        (["--suite", "twins-amalgam", "--kappa", "3"], "at least 8"),
        (["--suite", "poset-laws", "--f", "{negative_f}"], "pair (-1,2)"),
        (["--suite", "twins-amalgam", "--kappa", "100", "--trials", "1"], "between 1 and 64"),
        (["--suite", "insertion", "--kappa", "12", "--trials", "40"], "--kappa for suite insertion must be at least 14"),
        (["--suite", "insertion", "--kappa", "13", "--trials", "40"], "--kappa for suite insertion must be at least 14"),
        (["--suite", "space-checks", "--kappa", "64", "--trials", "1"], "space-checks must be at most 16"),
        (["--suite", "space-checks", "--kappa", "3", "--trials", "1"], "space-checks must be at least 4"),
        (["--suite", "insertion", "--trials", "2", "--f", "{good_f}"], "insertion does not read --f"),
        (["--suite", "space-checks", "--trials", "2", "--f", "{good_f}"], "space-checks does not read --f"),
        (["--suite", "closure-laws", "--trials", "2", "--f", "{good_f}"], "closure-laws does not read --f"),
        (["--suite", "fu-laws", "--trials", "2", "--f", "{good_f}"], "fu-laws does not read --f"),
        (["--suite", "star-laws", "--trials", "2", "--f", "{good_f}"], "star-laws does not read --f"),
        (["--suite", "twins-amalgam", "--trials", "2", "--f", "{big_f}"], "kappa must be between 1 and 64, got 70"),
    ],
    ids=[
        "trials", "jobs-negative", "jobs-zero", "twins-kappa", "negative-ordinal", "kappa-cap",
        "insertion-kappa-12", "insertion-kappa-13", "space-checks-kappa-64", "space-checks-kappa-3",
        "insertion-f", "space-checks-f", "closure-laws-f", "fu-laws-f", "star-laws-f", "f-kappa-70",
    ],
)
def test_bad_props_input_is_an_input_error(flags, named, tmp_path, capsys):
    negative_f = write(tmp_path, "f.json", {"kappa": 4, "f": [[-1, 2, []]]})
    good_f = write(tmp_path, "g.json", {"kappa": 12, "f": [[4, 5, [0, 1]], [5, 8, [2]]]})
    big_f = write(tmp_path, "b.json", {"kappa": 70, "f": []})
    code = main(["props", *(flag.format(negative_f=negative_f, good_f=good_f, big_f=big_f) for flag in flags)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert "Traceback" not in err


GOOD_SPACE = {
    "kappa": 3,
    "H": [[0, [0]], [1, [1]], [2, [0, 2]]],
    "i": [[0, 1, []], [0, 2, []], [1, 2, [0]]],
}


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("close", {"kappa": True, "f": []}, "kappa must be a positive integer"),
        ("check-space", {**GOOD_SPACE, "kappa": True}, "kappa must be a positive integer"),
        ("close", {"kappa": 70, "f": []}, "kappa must be between 1 and 64, got 70"),
        ("close", {"kappa": 0, "f": []}, "kappa must be between 1 and 64, got 0"),
        ("check-space", {**GOOD_SPACE, "kappa": 70}, "kappa must be between 1 and 64, got 70"),
        ("check-space", {**GOOD_SPACE, "i": [[0, 1, []], [0, 2, []], [1, 2, [99]]]}, "i entry at (1,2)"),
        ("check-space", {**GOOD_SPACE, "i": [[0, 1, []], [0, 2, []], [1, 9, []]]}, "i entry at (1,9)"),
        ("check-space", {**GOOD_SPACE, "H": [[0, [0]], [1, [-1, 1]], [2, [0, 2]]]}, "H value at 1"),
        ("check-space", {**GOOD_SPACE, "i": [[0, 1, []], [0, 1, [0]], [0, 2, []]]}, "duplicate i entry"),
        ("check-space", {**GOOD_SPACE, "H": [[0, [0]], [1, [1]], [1, [1]], [2, [0, 2]]]}, "duplicate H entry"),
    ],
    ids=[
        "f-kappa-bool", "space-kappa-bool", "f-kappa-70", "f-kappa-0", "space-kappa-70",
        "i-member", "i-key", "H-member", "duplicate-i", "duplicate-H",
    ],
)
def test_bad_space_or_pair_function_file_is_an_input_error(command, doc, named, tmp_path, capsys):
    path = write(tmp_path, "input.json", doc)
    argv = ["close", "--f", path, "--base", "1"] if command == "close" else ["check-space", "--space", path]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["twins", "amalgamate"])
@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_invalid_twin_input_is_an_input_error(command, flag, tmp_path, capsys):
    partial = {**WORKED_Q, "h": [[0, [0]]]}  # h undefined at 2
    files = {"--p": WORKED_P, "--q": WORKED_Q, flag: partial}
    argv = [command, "--f", write(tmp_path, "f.json", WORKED_F)]
    for name, doc in files.items():
        argv += [name, write(tmp_path, name.strip("-") + ".json", doc)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag} is not a valid condition") and err.count("\n") == 1
    assert "clauses i " in err


def test_twins_kappa_minimum_applies_only_without_f(tmp_path, capsys):
    assert main(["props", "--suite", "twins-amalgam", "--trials", "2", "--kappa", "8"]) == 0
    f = write(tmp_path, "f.json", WORKED_F)
    assert main(["props", "--suite", "twins-amalgam", "--trials", "2", "--kappa", "3", "--f", f]) == 0


@pytest.mark.parametrize(
    "schedule, flags, named",
    [
        ([{"point": 9}], [], "point goal 9 outside carrier 4"),
        ([], ["--kappa", "8"], "kappa=8 not within the pair function's carrier 4"),
        (
            [{"point": 3}, {"point": 1}, {"nbhd": {"beta": 3, "b": [99], "Z": [0]}}],
            [],
            'nbhd goal {"beta": 3, "b": [99], "Z": [0]} references ordinals outside carrier 4',
        ),
        (
            [{"point": 3}, {"point": 1}, {"nbhd": {"beta": 3, "b": [-1], "Z": [0]}}],
            [],
            'nbhd goal {"beta": 3, "b": [-1], "Z": [0]} references ordinals outside carrier 4',
        ),
    ],
    ids=["point-outside-carrier", "kappa-above-carrier", "b-above-carrier", "b-below-zero"],
)
def test_sample_space_range_fault_is_an_input_error(schedule, flags, named, tmp_path, capsys):
    f = write(tmp_path, "f.json", {"kappa": 4, "f": []})
    sched = write(tmp_path, "s.json", schedule)
    code = main(["sample-space", "--f", f, "--schedule", sched, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: {named}\n")


def test_check_space_reports_a_space_that_is_not_scattered(tmp_path, capsys):
    space = write(tmp_path, "space.json", {"kappa": 2, "H": [[0, [0, 1]], [1, [0, 1]]], "i": []})
    code = main(["check-space", "--space", space])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    doc = json.loads(captured.out)
    assert doc["max_invariant_violations"] == [0]
    assert doc["cb_rank_histogram"] == {}


@pytest.mark.parametrize(
    "H, i, unsettled",
    [
        ([[0, [0]], [1, [0]]], [[0, 1, []]], [1]),
        ([[0, []], [1, [0, 1]]], [[0, 1, []]], [0]),
        ([[0, [0]], [1, [0]]], [], [1]),
    ],
    ids=["equal-maxima", "empty-H-value", "equal-maxima-without-i"],
)
def test_check_space_reports_a_max_invariant_violation(H, i, unsettled, tmp_path, capsys):
    space = write(tmp_path, "space.json", {"kappa": 2, "H": H, "i": i})
    code = main(["check-space", "--space", space])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    doc = json.loads(captured.out)
    assert doc["max_invariant_violations"] == unsettled
    assert doc["star_containment"] is True


def test_fu_sim_refuses_a_space_that_breaks_the_max_invariant(tmp_path, capsys):
    space = write(tmp_path, "space.json", {"kappa": 3, "H": [[0, []], [1, [0]], [2, [1]]], "i": []})
    code = main(["fu-sim", "--space", space, "--A", "0,1", "--alpha", "2", "--blocks", "|0"])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", "error: space breaks max H(a) = a at points [0, 1, 2]\n")


CLI_TREE = ast.parse(Path(cli.__file__).read_text())
FUNCTIONS = {node.name: node for node in CLI_TREE.body if isinstance(node, ast.FunctionDef)}
COMMANDS = sorted(name for name in FUNCTIONS if name.startswith("cmd_"))
EXIT_CODES = {"EXIT_OK", "EXIT_FAIL", "EXIT_INPUT"}


def _emits(node: ast.AST) -> bool:
    """Whether ``node`` prints, touches ``sys.stdout`` or reads ``.quiet``."""
    return any(
        isinstance(sub, ast.Name) and sub.id == "print"
        or isinstance(sub, ast.Attribute) and sub.attr in {"stdout", "quiet"}
        for sub in ast.walk(node)
    )


def _names_exit_code(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in EXIT_CODES for sub in ast.walk(node))


class TestOutcomeShape:
    """Only ``main`` prints, honours ``--quiet`` and names an exit code; every
    command returns ``(report, ok)``."""

    def test_every_command_is_found(self):
        assert len(COMMANDS) == 10

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_returns_report_and_verdict(self, name):
        returns = [node for node in ast.walk(FUNCTIONS[name]) if isinstance(node, ast.Return)]
        assert returns
        assert all(isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2 for node in returns)

    def test_only_main_emits(self):
        assert {name for name, node in FUNCTIONS.items() if _emits(node)} == {"main"}

    def test_only_main_names_an_exit_code(self):
        assert {name for name, node in FUNCTIONS.items() if _names_exit_code(node)} == {"main"}


@pytest.mark.slow
class TestDeterminismSubprocess:
    def test_props_jobs_deterministic(self, tmp_path, run_cli):
        args = ["props", "--suite", "insertion", "--trials", "20", "--seed", "9"]
        rc1, out1 = run_cli(args, tmp_path)
        rc2, out2 = run_cli([*args, "--jobs", "3"], tmp_path)
        assert rc1 == rc2 == 0
        assert out1 == out2
