import pytest

from sparselab.grid import DyadicCube


@pytest.fixture()
def built_cubes(monkeypatch):
    """The list of every DyadicCube constructed while the test runs, in order."""
    built = []
    post_init = DyadicCube.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DyadicCube, "__post_init__", counted)
    return built
