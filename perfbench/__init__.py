"""Closed-loop HTTP benchmark of the serving tier (see README.md)."""
