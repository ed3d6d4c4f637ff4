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

    A code caches its lift's minimum proof once it finishes, and
    `catalog.build` shares its objects, so without this a test could
    read a proof that an earlier test walked and never walk its own.
    """
    from zklat import catalog

    catalog.build.cache_clear()
