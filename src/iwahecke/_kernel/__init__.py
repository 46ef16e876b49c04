"""
The group-arithmetic kernel, :mod:`iwahecke._kernel._pykernel`.
"""

__all__ = ["default_impl"]


def default_impl() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "python"
