import io

import pytest

from repro.tk import TkApp
from repro.x11 import XServer


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def app(server):
    application = TkApp(server, name="obstest")
    application.interp.stdout = io.StringIO()
    yield application
    application.obs.tracer.stop()
