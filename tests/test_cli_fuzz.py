"""The CLI input contract under generated input files.

Each file that ``validate``, ``check-space`` or ``sample-space`` reads starts
as a valid document from the package's own seeded generators and then takes
up to two mutations: a value replaced by a small integer, a list or a value
of the wrong type, an entry deleted or inserted, a key added; now and then
the text is also cut short.  Whatever the files, ``main`` returns 0, 1 or 2,
never raises, and an exit of 2 comes with exactly one ``error:`` line on
stderr.
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
from scatterlab.universe import random_pair_function

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
    elif command == "check-space":
        texts = {"space": formats.dump_space(random_space(f, seed, 3)[0])}
    else:
        schedule = space_schedule(f, rng, kappa, 3)
        texts = {"f": formats.dump_pair_function(f), "schedule": formats.dump_schedule(schedule)}
    return {flag: draw(near_text(text)) for flag, text in texts.items()}


def run(tmp_path, command, files):
    """``main`` on ``command`` with each ``--flag`` reading its text from a
    file; the exit code and the stderr lines."""
    args = [command]
    for flag, text in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(text)
        args += [f"--{flag}", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue().splitlines()


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", ["validate", "check-space", "sample-space"])
@FUZZ
@given(data=st.data())
def test_generated_files_keep_the_input_contract(tmp_path, command, data):
    code, err_lines = run(tmp_path, command, data.draw(input_files(command)))
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
