"""Kernel backend selection.

The hot kernels (exact-filtered predicates and the Bowyer-Watson
triangulator) exist twice: a compiled C extension (``_core.c``, built by
``setup.py``) and a pure-Python mirror. One of them is picked once, at
import time:

* ``THUE_LAB_BACKEND=c``       require the compiled kernel, fail otherwise
* ``THUE_LAB_BACKEND=python``  force the pure-Python kernel
* unset / ``auto``             compiled if importable, else pure Python

Both kernels produce bit-identical results; the choice only affects speed.
"""

import os

_requested = os.environ.get("THUE_LAB_BACKEND", "auto").strip().lower()

if _requested in ("", "auto"):
    try:
        from thuelab import _core as _impl
    except ImportError:
        from thuelab import _core_py as _impl
elif _requested == "c":
    from thuelab import _core as _impl
elif _requested == "python":
    from thuelab import _core_py as _impl
else:
    raise RuntimeError(
        f"unknown THUE_LAB_BACKEND value {_requested!r}; "
        "expected 'auto', 'c' or 'python'"
    )

BACKEND_NAME = _impl.BACKEND_NAME
orient2d = _impl.orient2d
incircle = _impl.incircle
Triangulator = _impl.Triangulator
