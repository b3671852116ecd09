"""Session-wide test settings."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    # the compiled step loop is built once per session in a temporary
    # cache, not in the user's
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
