"""Suite-wide test configuration.

Property tests run under one derandomized hypothesis profile, so every
run of the suite draws the same examples and a failure reproduces.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
