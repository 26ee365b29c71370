"""Numerical toolkit for classical source coding with quantum side information."""

from __future__ import annotations

__version__ = "0.1.0"
__all__ = ["__version__"]
