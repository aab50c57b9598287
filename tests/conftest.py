import os

import pytest


@pytest.fixture()
def forks(monkeypatch):
    """The list of forks made in this test, one entry per ``os.fork`` call."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made
