import gc

import hypothesis
import pytest

from corpora import build_geometric_corpus

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def geometric_corpus():
    corpus = build_geometric_corpus()
    # the corpus lives to the end of the session: move it out of the
    # collector's generations so later gc.collect() calls skip it
    gc.collect()
    gc.freeze()
    return corpus
