import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)


@pytest.fixture
def workdir(request):
    """A fresh directory under the checkout's .bench_run/ (git-ignored)."""
    path = ROOT / ".bench_run" / "selftest" / request.node.name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
