"""Build script: compiles the optional search extension with the C compiler.

The package is fully functional without the extension (a pure-Python
twin of the search kernel ships alongside it); the tolerant build_ext
falls back to it when no compiler is available.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that downgrades compiler failures to a warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing toolchain
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: building the speedup extension failed ({exc}); "
              "falling back to the pure-Python kernels.")


setup(ext_modules=[Extension("dihedral_magic._kernels",
                             sources=["src/dihedral_magic/_kernels.c"])],
      cmdclass={"build_ext": optional_build_ext})
