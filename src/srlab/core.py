"""The one name through which the library reaches the series kernel.

Every layer above the kernel imports `kernel` from here rather than the
kernel module itself, so the kernel functions they call can be wrapped in a
single place (the benchmark's tracer patches `srlab.core.kernel`).  The
kernel holds only series supports; `QuadExt` does its own arithmetic and
borrows the kernel's exact sign `irr_sign`.
"""

from __future__ import annotations

from . import _kernel_py as kernel

BACKEND: str = kernel.BACKEND
