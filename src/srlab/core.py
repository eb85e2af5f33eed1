"""The one name through which the library reaches the series kernel.

Every layer above the kernel imports `kernel` from here rather than the
kernel module itself, so the kernel functions they call can be wrapped in a
single place (the benchmark's tracer patches `srlab.core.kernel`).  The
kernel holds only series supports, dicts from exponent keys to coefficient
indices: one integer per exponent that adds as the exponents add and
orders exactly as they do while their lattice coordinates stay below 2^29
(see `srlab._kernel_py`).  `srlab.scalar` does its own exact arithmetic,
its sign `irr_sign` included, and does not reach the kernel.
"""

from __future__ import annotations

from . import _kernel_py as kernel

BACKEND: str = kernel.BACKEND
