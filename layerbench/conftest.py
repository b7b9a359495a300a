"""Put ``src/`` on the import path, so ``python -m pytest layerbench`` runs
from the root of a checkout without installing the package."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
