"""Build script: compiles the optional C kernel `thuelab._core`.

`src/thuelab/_core.c` is a plain CPython extension that the system C
compiler builds; no code generator is involved. The package works without
it (a pure-Python kernel is selected at import time), so a failed compile
only costs speed. We therefore treat any build error as non-fatal.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Skip the extension instead of failing the whole install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - deliberately broad
            sys.stderr.write(f"warning: compiled kernel skipped ({exc})\n")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            sys.stderr.write(
                f"warning: building {ext.name} failed ({exc}); "
                "falling back to the pure-Python kernel\n"
            )


setup(
    ext_modules=[
        Extension(
            "thuelab._core",
            sources=["src/thuelab/_core.c"],
            # Keep strict IEEE semantics: the pure-Python and compiled kernels
            # must produce bit-identical floats. No fused multiply-add, no
            # -ffast-math.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
