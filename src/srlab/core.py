"""The one name through which the library reaches the exact kernel.

Every layer above the kernel imports `kernel` from here rather than the
kernel module itself, so the kernel functions they call can be wrapped in a
single place (the benchmark's tracer patches `srlab.core.kernel`).
"""

from __future__ import annotations

from . import _kernel_py as kernel

BACKEND: str = kernel.BACKEND
