"""Script entry point: ``python3 benchmarks/e2e/run.py`` from the repository root.

Puts the repository root on ``sys.path`` so the benchmark's modules
import as the ``benchmarks.e2e`` package, exactly as under
``python -m benchmarks.e2e``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
