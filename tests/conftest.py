import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--slow", action="store_true", default=False,
        help="also run the long enumeration rows (dims 32-48)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="long enumeration; pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def fresh_catalog():
    """Build catalog objects afresh for the test that uses this.

    A lattice, a code's lift lattice included, keeps its minimum proof
    once it finishes, and `catalog.build` shares its objects, so without
    this a test could read a proof that an earlier test walked and never
    walk its own.
    """
    from zklat import catalog

    catalog.build.cache_clear()


@pytest.fixture
def ball_walks(monkeypatch):
    """A list that gains the norm bound of each exact walk (`shortvec._ball` call) in the test."""
    from zklat import shortvec

    calls = []
    ball = shortvec._ball

    def counted(basis, bound, *args, **kwargs):
        calls.append(bound)
        return ball(basis, bound, *args, **kwargs)

    monkeypatch.setattr(shortvec, "_ball", counted)
    return calls
