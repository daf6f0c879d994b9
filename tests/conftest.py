"""Shared test configuration.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source rather than drawn at random, no example
database is kept between runs, and the number of examples is bounded, so
every run checks the same cases in about the same time.
"""

from hypothesis import settings

settings.register_profile(
    "motzkin",
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
)
settings.load_profile("motzkin")
