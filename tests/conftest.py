import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wiener_coding


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports this package's source and
    return the JSON object printed on the last line of its output."""
    src = str(Path(wiener_coding.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(code: str):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run
