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


def philox_words(gen):
    """The ten words {key, ctr[4], buf[4], used} of numpy Generator
    ``gen``'s Philox state, as the kernel keeps them."""
    state = gen.bit_generator.state
    key, counter = state["state"]["key"].tolist(), \
        state["state"]["counter"].tolist()
    assert key[1] == 0
    return [key[0], *counter, *state["buffer"].tolist(),
            state["buffer_pos"]]
