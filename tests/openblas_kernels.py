"""Running test code under each OpenBLAS x86-64 kernel.

OpenBLAS reads OPENBLAS_CORETYPE when numpy loads it, so a test picks a
kernel by running a fresh Python process with that variable set, and
``scipy_openblas_get_corename64_`` reports the kernel that was loaded.
Nehalem loads on any current x86-64 CPU, Sandybridge needs AVX, Haswell
AVX2 and FMA, and SkylakeX AVX-512.
"""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unitax

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")

TESTS = Path(__file__).resolve().parent


def runtime_kernel():
    """The OpenBLAS kernel this process runs, or None on a numpy that does
    not say."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def run_on_kernel(kernel, code):
    """The finished process of a fresh Python that runs ``code`` on the
    OpenBLAS ``kernel``, with the package and the tests importable; its
    stdout holds what ``code`` prints.

    Skips, with the reason, off x86-64, on a numpy that does not report its
    kernel, and on a CPU that cannot load ``kernel``.
    """
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"OpenBLAS x86-64 kernels do not run on {platform.machine()}")
    if runtime_kernel() is None:
        pytest.skip("this numpy exports no scipy_openblas_get_corename64_")
    src = Path(unitax.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    first = "from openblas_kernels import runtime_kernel\nprint(runtime_kernel(), flush=True)\n"
    done = subprocess.run([sys.executable, "-c", first + code],
                          capture_output=True, text=True, env=env)
    loaded, _, done.stdout = done.stdout.partition("\n")
    if done.returncode < 0 or loaded != kernel:
        pytest.skip(f"this CPU cannot run the {kernel} kernel: it loaded "
                    f"{loaded or 'none'} and exited with {done.returncode}")
    return done
