import pytest

from cdlab import search


@pytest.fixture
def fresh_context():
    """Drop the memoized search context before and after the test: a
    context captures its checker when it is built, so one built while a
    test patches CHECKERS must not outlive the patch."""
    search._context.cache_clear()
    yield
    search._context.cache_clear()
