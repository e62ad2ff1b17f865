"""Child interpreters that tests start (`python -m oewb ...`) import oewb
from this checkout's src/, as the test process itself does through the
pythonpath setting in pyproject.toml, and treat every warning as an error,
as the filterwarnings setting there makes the test process do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"
