import hypothesis
import pytest

from designgate import families

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def block_count_calls(monkeypatch):
    """The members passed to families.block_count while the test runs."""
    calls = []
    real = families.block_count

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(families, "block_count", counting)
    return calls
