import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, so a change to the library that alters
# what a demo prints fails here
STDOUT_SHA256 = {
    "01_independence_and_poisedness.py":
        "0bb1dbcc408853ef7b65221560053f5e5d3bbfec71d47c6ce40a6f52c95dfffb",
    "02_curves_and_node_counts.py":
        "ef446364c66c2e72128e3660b47dc0d8773fa893fbb80b2c14048102660a7f3e",
    "03_defect_configurations.py":
        "5715c391ac6f7b83879fc9d4eff1d1773f57a33b5177cf865bb7786835d58ea6",
    "04_line_usage.py":
        "69ea52ff0186b30a6798a7ebde788184a8fb80333d14f17204e2e77592864c64",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # run a copy, so a demo that writes next to itself writes into tmp_path
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            STDOUT_SHA256[script.name]
    if script.name == "05_figures.py":
        # the figure is tracked, so this pins the SVG output byte for byte
        svg = "defect.svg"
        assert (tmp_path / svg).read_bytes() == \
            (ROOT / "demos" / svg).read_bytes()
