"""Call counting for the tests' cost guards."""

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock


@contextmanager
def counted(module, name):
    """Record the arguments of every call of ``module.name`` made through
    any convval module that binds it (``module`` included)."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with ExitStack() as stack:
        for key, m in sorted(sys.modules.items()):
            if key.startswith("convval") and getattr(m, name, None) is real:
                stack.enter_context(mock.patch.object(m, name, counting))
        yield calls
