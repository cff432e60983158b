import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def hs():
    import run

    return run.fresh_import()


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout's ignored perfbench/out."""
    import run

    run.OUT.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)
