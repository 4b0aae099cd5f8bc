import contextlib
import shutil
from unittest import mock

import pytest

from stuckwalk import _kernel

needs_cc = pytest.mark.skipif(shutil.which(_kernel.COMPILER) is None,
                              reason="no C compiler for the kernels")


@contextlib.contextmanager
def python_engines():
    """Run the code inside as where no kernel loads: the Python engines."""
    with mock.patch.object(_kernel, "load", lambda: None):
        yield
