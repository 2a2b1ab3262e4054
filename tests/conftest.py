import pytest

from ccodes import enumerator, oracle
from ccodes._memo import Memo


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Every test starts with empty sweep memos, whatever ran before it."""
    for module in (enumerator, oracle):
        for name, value in list(vars(module).items()):
            if isinstance(value, Memo):
                monkeypatch.setattr(module, name, Memo())
