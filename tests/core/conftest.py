"""Fixtures shared by the network tests."""

import pytest

from repro.core import network as network_module


@pytest.fixture(params=["compiled", "python"])
def port(request, monkeypatch):
    """Run the test on the compiled path core, then on the Python port (the
    core made unavailable, as on a machine without a compiler)."""
    if request.param == "python":
        monkeypatch.setattr(network_module, "_compiled_port", lambda: None)
    elif network_module._compiled_port() is None:
        pytest.skip("compiled path core unavailable")
    return request.param
