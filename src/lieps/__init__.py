"""Exact-arithmetic engine for invariant Poisson structures on homogeneous spaces."""

from .exact import QQ, Mat, Subspace, kernel, rref, solve

__version__ = "0.1.0"

__all__ = ["QQ", "Mat", "Subspace", "kernel", "rref", "solve", "__version__"]
