"""Exact integrality gates for support t-designs of extremal binary doubly
even self-dual codes.  Import each name from the module that defines it."""

__version__ = "0.1.0"
