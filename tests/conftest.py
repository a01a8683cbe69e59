import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatterlab
from scatterlab.suites import run_suite

# The directory holding the package, absolute so that a subprocess started in
# any working directory imports the same code as the tests.
PACKAGE_ROOT = str(Path(scatterlab.__file__).resolve().parent.parent)


@pytest.fixture
def run_cli():
    """Run ``python -m scatterlab.cli`` in a subprocess; gives (exit code, stdout)."""
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([PACKAGE_ROOT, inherited]) if inherited else PACKAGE_ROOT
    env = {**os.environ, "PYTHONPATH": path}

    def run(args, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "scatterlab.cli", *args], capture_output=True, cwd=cwd, env=env
        )
        return proc.returncode, proc.stdout

    return run


# The seed of the acceptance gate (``tests/test_acceptance.py``).
ACCEPTANCE_SEED = 20240813


@pytest.fixture(scope="session")
def poset_laws_report():
    """The ``poset-laws`` report at its default 20 trials and the acceptance seed.

    The suite is the slowest in the package, so the acceptance gate and the
    fingerprints share this one run.
    """
    return run_suite("poset-laws", trials=20, seed=ACCEPTANCE_SEED)
