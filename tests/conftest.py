import pytest

from ccodes import _memo


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Every test starts with an empty sweep memo, whatever ran before it."""
    monkeypatch.setattr(_memo, "sweep", _memo.Memo())
