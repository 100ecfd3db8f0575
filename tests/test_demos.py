import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
    if script.name == "05_figures.py":
        # the figure is tracked, so this pins the SVG output byte for byte
        svg = "defect.svg"
        assert (tmp_path / svg).read_bytes() == \
            (ROOT / "demos" / svg).read_bytes()
