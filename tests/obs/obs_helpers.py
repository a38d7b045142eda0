"""Helpers shared by the ``tests/obs`` modules.

They live here, not in ``conftest.py``: test files import them by
module name, and ``conftest`` can resolve to another directory's
conftest when several test directories share one pytest run.
"""


def click(server, app, path, button=1):
    """Press and release a button inside a widget's window."""
    window = app.window(path)
    root_x, root_y = window.root_position()
    server.warp_pointer(root_x + 2, root_y + 2)
    server.press_button(button)
    server.release_button(button)
    app.update()
