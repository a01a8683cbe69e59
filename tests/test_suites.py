import hashlib
import importlib
import pkgutil
import random
import re
from itertools import takewhile
from pathlib import Path

import pytest

import scatterlab.poset
from scatterlab import formats
from scatterlab.cli import main
from scatterlab.errors import BadArgument, ScatterlabError
from scatterlab.generic import NbhdGoal, PointGoal
from scatterlab.poset import basic_nbhd
from scatterlab.sampling import random_space
from scatterlab.suites import SUITES, _workers, run_suite
from scatterlab.universe import MAX_KAPPA, random_pair_function

README = Path(__file__).resolve().parent.parent / "README.md"
MODULE_TABLE_HEADER = "| module                 | contents |"
SUITE_TABLE_HEADER = "| suite | reads `--f` | `--kappa` without `--f` | default `--trials` | default `--trials` with `--f` |"


class TestHarnessContract:
    def test_unknown_suite_raises(self):
        with pytest.raises(BadArgument, match="unknown suite 'no-such-suite'; available: "):
            run_suite("no-such-suite")

    def test_passing_report_has_no_witnesses(self):
        rep = run_suite("twins-amalgam", trials=10, seed=3)
        assert rep.ok
        assert rep.witnesses == []
        assert all(v["fail"] == 0 for v in rep.outcome.values())

    def test_injected_bug_yields_replayable_witnesses(self, monkeypatch):
        true_star = scatterlab.poset.star

        def buggy_star(x, y):
            out = true_star(x, y)
            return out | {0} if 5 in x else out  # corrupt one case family

        monkeypatch.setattr(scatterlab.poset, "star", buggy_star)
        rep = run_suite("star-laws", seed=0)
        assert not rep.ok
        assert rep.witnesses  # nonempty exactly because failures were counted
        fails = sum(v["fail"] for v in rep.outcome.values())
        assert fails == len(rep.witnesses)
        wit = rep.witnesses[0]
        assert "x" in wit and "y" in wit and "property" in wit
        # the witness replays against the true implementation
        x, y = frozenset(wit["x"]), frozenset(wit["y"])
        assert buggy_star(x, y) != true_star(x, y)

    def test_failure_path_is_pinned(self, monkeypatch):
        # No suite fails at its default seeds, so force one property to fail
        # everywhere and pin the report, witnesses and all.
        monkeypatch.setattr(scatterlab.poset, "leq_restricted", lambda r1, r2: False)
        serial = run_suite("poset-laws", trials=2, seed=0)
        text = formats.to_text(serial.as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fa4f348a7b44efb7ff1390efb3dd98cfd99d8297a02c97f65692c7ab3596dc77"
        )
        assert serial.outcome["leq-restricted-agrees"] == {"pass": 0, "fail": 8562}
        # Workers are forked, so they inherit the patch.
        assert formats.to_text(run_suite("poset-laws", trials=2, seed=0, jobs=2).as_dict()) == text
        assert len(serial.witnesses) == sum(v["fail"] for v in serial.outcome.values())
        assert all({"property", "trial"} <= set(w) for w in serial.witnesses)

    @pytest.mark.parametrize("name", ["twins-amalgam", "insertion"])
    def test_kappa_64_reports_do_not_depend_on_jobs(self, name):
        # Each trial draws a kappa-64 pair function and reads only some of its values.
        serial = formats.to_text(run_suite(name, trials=4, seed=3, kappa=64).as_dict())
        assert formats.to_text(run_suite(name, trials=4, seed=3, kappa=64, jobs=2).as_dict()) == serial

    def test_report_shape(self):
        rep = run_suite("insertion", trials=5, seed=1)
        doc = rep.as_dict()
        assert set(doc) == {"command", "inputs", "outcome", "witnesses", "seed", "notes"}
        assert doc["seed"] == 1
        assert doc["command"] == "props:insertion"
        # A shallow view: the report's own objects, not deep copies of them.
        assert all(doc[name] is getattr(rep, name) for name in doc)


class TestArguments:
    """``run_suite`` refuses what ``props`` refuses, with the line ``props`` prints."""

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("density", 2.0, "density must be between 0 and 1, got 2.0"),
            ("trials", -1, "--trials must be at least 0, got -1"),
            ("jobs", 0, "--jobs must be at least 1, got 0"),
        ],
        ids=["density", "trials", "jobs"],
    )
    def test_refused_with_the_props_message(self, argument, value, message, capsys):
        args = {"trials": 3, argument: value}
        with pytest.raises(BadArgument) as refused:
            run_suite("twins-amalgam", **args)
        assert str(refused.value) == message
        argv = ["props", "--suite", "twins-amalgam"]
        for name, given in args.items():
            argv += [f"--{name}", str(given)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSuiteTable:
    @pytest.mark.parametrize("name, trials, kappa", [("insertion", 3, 12), ("space-checks", 2, 64)])
    def test_kappa_outside_the_table_is_refused(self, name, trials, kappa):
        with pytest.raises(BadArgument, match=f"--kappa for suite {name} must be"):
            run_suite(name, trials=trials, kappa=kappa)

    @pytest.mark.parametrize(
        "name, kappa, with_f",
        [
            (name, kappa, with_f)
            for name, suite in SUITES.items()
            for least, most in [suite.kappa or (1, MAX_KAPPA)]
            for kappa in (least - 1, least, most, most + 1)
            for with_f in (False, True)
        ],
    )
    def test_cli_refuses_exactly_what_run_suite_refuses(self, name, kappa, with_f, tmp_path, capsys):
        f = random_pair_function(6, 0.5, 1) if with_f else None
        argv = ["props", "--suite", name, "--kappa", str(kappa), "--trials", "0", "--jobs", "1"]
        if with_f:
            path = tmp_path / "f.json"
            path.write_text(formats.dump_pair_function(f))
            argv += ["--f", str(path)]
        try:
            run_suite(name, trials=0, kappa=kappa, f=f)
            refusal = None
        except ScatterlabError as exc:
            refusal = str(exc)
        code = main(argv)
        err = capsys.readouterr().err
        if refusal is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: {refusal}\n")

    def test_readme_table_matches(self):
        lines = README.read_text().splitlines()
        start = lines.index(SUITE_TABLE_HEADER) + 2  # past the header and its rule
        rows = list(takewhile(lambda line: line.startswith("|"), lines[start:]))
        expected = [
            f"| `{name}` | {'no' if suite.f_trials is None else 'yes'} "
            f"| {'not read' if suite.kappa is None else '{} to {}'.format(*suite.kappa)} "
            f"| {suite.trials} | {'—' if suite.f_trials is None else suite.f_trials} |"
            for name, suite in SUITES.items()
        ]
        assert rows == expected


def test_readme_module_table_names_module_attributes():
    """The README's module table is the package's API map: one row per module,
    and each backticked identifier in a row is an attribute of that module."""
    lines = README.read_text().splitlines()
    start = lines.index(MODULE_TABLE_HEADER) + 2  # past the header and its rule
    rows = [line.split("|")[1:3] for line in takewhile(lambda line: line.startswith("|"), lines[start:])]
    modules = {cell.strip().strip("`"): contents for cell, contents in rows}
    package = {f"scatterlab.{info.name}" for info in pkgutil.iter_modules(scatterlab.__path__)}
    assert set(modules) == package
    for module, contents in modules.items():
        names = [name for name in re.findall(r"`([^`]+)`", contents) if name.isidentifier()]
        assert names, module
        missing = [name for name in names if not hasattr(importlib.import_module(module), name)]
        assert missing == [], module


class TestWorkers:
    """The worker count is computed, never tried out: no process is spawned."""

    @pytest.mark.parametrize(
        "jobs, tasks, cpus, expected",
        [(1, 20, 2, 1), (2, 20, 2, 2), (3, 20, 2, 2), (64, 20, 2, 2), (64, 20, 8, 8),
         (8, 3, 8, 3), (4, 1, 8, 1), (4, 0, 8, 0), (4, 20, None, 1)],
    )
    def test_clamped_to_cpus_and_tasks(self, jobs, tasks, cpus, expected, monkeypatch):
        monkeypatch.setattr("scatterlab.suites.os.cpu_count", lambda: cpus)
        assert _workers(jobs, tasks) == expected


class TestScheduleLog:
    def test_every_logged_goal_is_satisfied_at_its_chain_index(self):
        rng = random.Random(2)
        for t in range(15):
            kappa = rng.randint(4, 12)
            f = random_pair_function(kappa, 0.5, t)
            _, sample, _ = random_space(f, t, nbhd_goals=8)
            for rec in sample.schedule_log:
                cond = sample.chain[rec.chain_index]
                if isinstance(rec.goal, PointGoal):
                    assert rec.goal.alpha in cond.a
                else:
                    assert isinstance(rec.goal, NbhdGoal)
                    u = basic_nbhd(cond, rec.goal.beta, rec.goal.b)
                    assert u & rec.goal.Z
