"""Certified three-term progression counts for functions on F_p^n."""

__version__ = "0.1.0"
