"""Shared test settings."""
from hypothesis import settings

# bounded and reproducible: no deadline, a fixed example order and no
# example database; each property sets its own max_examples on top
settings.register_profile("bounded", deadline=None, derandomize=True, database=None)
