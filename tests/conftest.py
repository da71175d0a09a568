"""The runs that the corpus-wide checks share."""
import gc

import pytest

from helpers import corpus, run


@pytest.fixture(scope="session", params=["dfs", "fifo"])
def decided(request):
    """`(text, kb, verdict)` for each text of `corpus()`, decided once per strategy. The
    runs are shared and read-only: a test that steps an engine or compares interning parses
    its own KB. The collector skips them; walking them would cost more than deciding them."""
    gc.disable()
    try:
        runs = [(text, *run(text, request.param)) for text in corpus()]
    finally:
        gc.freeze()
        gc.enable()
    yield runs
    gc.unfreeze()
    gc.collect()
