import hypothesis
import pytest

from corpora import build_geometric_corpus

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def geometric_corpus():
    return build_geometric_corpus()
