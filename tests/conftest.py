"""The interpreters some tests start import opcert from this checkout's
src, as the tests themselves do through pyproject's pytest pythonpath."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
