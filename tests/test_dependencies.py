"""The command line needs numpy and the standard library, nothing more."""

import os
import subprocess
import sys
from pathlib import Path

import dcqd

# the baseline is taken in the child, after start-up: ``site`` may already
# have loaded third-party modules of its own by then
CHILD = """
import sys
before = set(sys.modules)
import dcqd.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_cli_imports_no_third_party_module_but_numpy():
    # the child imports the same package the tests import
    src = str(Path(dcqd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=120, env=env, check=True
    )
    assert proc.stdout.split() == ["dcqd", "numpy"]
