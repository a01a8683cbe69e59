"""The CLI input contract under generated input files and flags.

Each file that ``validate``, ``check-space``, ``sample-space``, ``close`` or
``fu-sim`` reads starts as a valid document from the package's own seeded
generators and then takes up to two mutations: a value replaced by a small
integer, a list or a value of the wrong type, an entry deleted or inserted, a
key added; now and then the text is also cut short.  The ordinal flags of
``close`` and ``fu-sim`` take generated values: ordinals that are negative,
in the carrier or at or above it, and text that is not an integer list.
``gen-f`` takes generated ``--kappa``, ``--density`` and ``--seed`` values:
out-of-range and non-integer carrier sizes, densities that are NaN,
infinite, negative zero, subnormal, just above 1 or not numbers, and seeds
that are negative, beyond 64 bits or not integers.  Whatever the input,
``main`` returns 0, 1 or 2, never raises, and an exit of 2 comes with exactly
one ``error:`` line on stderr; an exit of 0 from ``gen-f`` prints the pair
function that the reference draw gives.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scatterlab import formats
from scatterlab.cli import main
from scatterlab.sampling import random_condition, random_space, space_schedule
from scatterlab.universe import PairFunction, random_pair_function

from oracles import oracle_pair_function

VALUE = st.one_of(
    st.integers(-2, 9),
    st.lists(st.integers(-1, 8), max_size=3),
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.floats(allow_nan=False),
    st.just({}),
)
KEYS = ("a", "h", "i", "f", "H", "kappa", "point", "nbhd", "beta", "b", "Z", "extra")


def _slots(doc):
    """Every ``(container, key)`` position inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        yield doc, key
        yield from _slots(value)


@st.composite
def near_text(draw, text):
    """``text``, a JSON document, after up to two mutations, sometimes cut short."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("replace", "delete", "insert")))
        if action == "replace":
            container[key] = draw(VALUE)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, draw(VALUE))
        else:
            container[draw(st.sampled_from(KEYS))] = draw(VALUE)
    out = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        out = out[: draw(st.integers(0, len(out)))]
    return out


@st.composite
def input_files(draw, command):
    """The text of each file ``command`` reads, by flag."""
    seed, kappa = draw(st.integers(0, 2**16)), draw(st.integers(1, 8))
    rng = random.Random(seed)
    f = random_pair_function(kappa, rng.random(), seed)
    if command == "validate":
        size = rng.randint(0, kappa)
        texts = {"f": formats.dump_pair_function(f), "cond": formats.dump_condition(random_condition(f, rng, size))}
    elif command == "close":
        texts = {"f": formats.dump_pair_function(f)}
    elif command in ("check-space", "fu-sim"):
        texts = {"space": formats.dump_space(random_space(f, seed, 3)[0])}
    else:
        schedule = space_schedule(f, rng, kappa, 3)
        texts = {"f": formats.dump_pair_function(f), "schedule": formats.dump_schedule(schedule)}
    return {flag: draw(near_text(text)) for flag, text in texts.items()}


ORDINAL = st.integers(-3, 11)  # negative, in a carrier of 1 to 8 ordinals, or at or above it
JUNK = st.sampled_from(["", " ", "x", "1.5", "1,,2", "2,", ",", "-", "--", "3|", "|", "0x1", "1e2", "\u0661"])
ORDINALS = st.one_of(st.lists(ORDINAL, max_size=4).map(lambda xs: ",".join(map(str, xs))), JUNK)
FLAGS = {
    "close": {"base": ORDINALS, "partners": ORDINALS},
    "fu-sim": {
        "A": ORDINALS,
        "alpha": st.one_of(ORDINAL.map(str), JUNK),
        "blocks": st.one_of(st.lists(ORDINALS, max_size=3).map("|".join), JUNK),
    },
    "gen-f": {
        "kappa": st.one_of(st.integers(-2, 12), st.integers(-2, 70), JUNK).map(str),
        "density": st.one_of(
            st.floats(0, 1).map(repr),
            st.floats().map(repr),
            st.sampled_from(["nan", "inf", "-inf", "-0.0", "5e-324", "1e-310", "1.0000001", "1", "0", "x", ""]),
        ),
        "seed": st.one_of(st.integers(-(2**70), 2**70), JUNK).map(str),
    },
}


@st.composite
def flag_args(draw, command):
    """Each ordinal flag of ``command`` with a generated value, written as
    ``--flag=value`` or as two arguments."""
    args = []
    for flag, values in FLAGS.get(command, {}).items():
        value = draw(values)
        args += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return args


def run(tmp_path, command, files, flags=()):
    """``main`` on ``command`` with each ``--flag`` reading its text from a
    file, plus ``flags``; the exit code, the stderr lines and stdout."""
    args = [command, *flags]
    for flag, text in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(text)
        args += [f"--{flag}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue().splitlines(), out.getvalue()


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", ["validate", "check-space", "sample-space", "close", "fu-sim"])
@FUZZ
@given(data=st.data())
def test_generated_files_keep_the_input_contract(tmp_path, command, data):
    code, err_lines, _ = run(tmp_path, command, data.draw(input_files(command)), data.draw(flag_args(command)))
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_gen_f_keeps_the_input_contract_and_prints_the_reference_draw(tmp_path, data):
    flags = data.draw(flag_args("gen-f"))
    code, err_lines, out = run(tmp_path, "gen-f", {}, flags)
    assert code in (0, 2)
    if code == 2:
        assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
    else:
        values, args = {}, iter(flags)
        for arg in args:  # "--flag=value" or "--flag", "value"
            flag, eq, value = arg.partition("=")
            values[flag] = value if eq else next(args)
        kappa, density, seed = int(values["--kappa"]), float(values["--density"]), int(values["--seed"])
        assert out == formats.dump_pair_function(PairFunction.build(kappa, oracle_pair_function(kappa, density, seed)))
