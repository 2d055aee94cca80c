import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accelerator extension if possible, otherwise fall back.

    The package is fully functional with the pure-Python kernel, so a
    missing compiler must not break installation.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # platform without a usable toolchain
            warnings.warn(f"compcodes: skipping compiled kernel build ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"compcodes: could not build {ext.name} ({exc}); "
                          "the pure-Python kernel will be used")


setup(ext_modules=[Extension("compcodes._ckernel", ["src/compcodes/_ckernel.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
