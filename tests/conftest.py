"""Shared test settings: one bounded, reproducible hypothesis profile."""

from hypothesis import settings

# derandomize: every run draws the same examples, so a failure reproduces;
# no example database, so runs leave nothing behind in the checkout.
settings.register_profile(
    "anosovlab", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("anosovlab")
