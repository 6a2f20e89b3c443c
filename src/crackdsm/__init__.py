"""Direct sampling imaging of small straight cracks from far-field data."""

__version__ = "0.1.0"
