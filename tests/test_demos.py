"""Each script in ``demos/`` prints what ``demos/expected/<name>.txt``
holds, byte for byte.  The flow tour prints its reduction network in
DIMACS form, so this also pins the network's node and arc order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import recdiv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(script):
    # the demo imports the recdiv this test imports
    package_root = str(Path(recdiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], capture_output=True, env=env)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (DEMOS / "expected" / f"{script.stem}.txt").read_bytes()
