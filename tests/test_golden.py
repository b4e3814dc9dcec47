"""The outputs recorded in golden/manifest.json keep their bytes
(scripts/golden.py)."""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_outputs_match_the_manifest():
    manifest = json.loads((ROOT / "golden" / "manifest.json").read_text())
    here = {"python": platform.python_version(), "numpy": np.__version__}
    recorded = {k: manifest[k] for k in here}
    if recorded != here:
        pytest.skip(
            f"digests recorded under {recorded}, running under {here}: float formatting, "
            "libm's hypot and numpy's kernels may round the last bit differently"
        )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "golden.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"all {len(manifest['digests'])} digests match" in done.stdout
