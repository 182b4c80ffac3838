"""The README's "Library quickstart" runs as written and prints what its comments promise."""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Runs the blocks given as arguments in order, in one namespace, so a later
# block sees an earlier one's imports; print records its arguments, which go
# to standard output as one pickle.
RUNNER = """
import pickle, sys
printed = []
namespace = {"print": lambda *values: printed.append(values)}
for block in sys.argv[1:]:
    exec(compile(block, "README.md", "exec"), namespace)
sys.stdout.buffer.write(pickle.dumps(printed))
"""


def quickstart_blocks() -> list[str]:
    section = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)


def test_library_quickstart_prints_what_its_comments_promise():
    blocks = quickstart_blocks()
    assert len(blocks) == 2 and "import numpy" not in blocks[1]
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", RUNNER, *blocks],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr.decode()
    (
        (sif,), (stress,), (opening,), (curve,), (grid_shape,), residuals,
        (matrix_shape,), (dets,), (kernel_shape,), (boundary,), (indices, fits),
    ) = pickle.loads(run.stdout)

    assert all(type(value) is float for value in (sif, stress, opening))
    assert curve.shape == (5,)
    assert grid_shape == (2, 3)
    assert all(residual <= 1e-12 for residual in residuals) and len(residuals) == 2
    assert matrix_shape == (2, 2)
    assert dets.shape == (21,) and np.all(np.abs(dets + 0.5) <= 1e-12)
    assert kernel_shape == (21,)
    assert boundary <= 1e-12
    assert indices == [0, 0] and fits is True
