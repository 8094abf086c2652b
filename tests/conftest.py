import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    # pyproject's `pythonpath` puts src on sys.path of the test process only;
    # the tests that start `python -m aritygap` find it through PYTHONPATH.
    paths = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
