import pytest


@pytest.fixture(autouse=True)
def _no_config_env(monkeypatch):
    # Without --config the CLI reads the device from $SOTLOGIC_CONFIG, so
    # a developer's own setting would change what every test runs.
    monkeypatch.delenv("SOTLOGIC_CONFIG", raising=False)
