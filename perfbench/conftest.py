"""Make the program's source tree and this package importable in tests."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for path in (_ROOT, _ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
