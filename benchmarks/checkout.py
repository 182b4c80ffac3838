"""Locate the checkout the benchmark runs in and import the library from its source.

The benchmark must measure the `pennycontact` in this checkout's ``src``,
never an installed copy, and must refuse to run where that source is absent.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pennycontact"

# BLAS is pinned to one thread: one client, one core's worth of work, and no
# thread start-up that differs from process to process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class CheckoutError(RuntimeError):
    """The checkout holds no library source to benchmark."""


def require_source() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no library source at {PACKAGE}")


def child_env() -> dict:
    """Environment for a process that imports the library from this checkout."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    """Put this checkout's ``src`` first on sys.path and import the package from it."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pennycontact

    if Path(pennycontact.__file__).resolve().parent != PACKAGE:
        raise CheckoutError(f"imported {pennycontact.__file__}, not the source under {SRC}")
    return pennycontact


def source_digest() -> str:
    """SHA-256 over the library's source files, usable where git is not."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
