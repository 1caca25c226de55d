"""Shared test settings: one bounded, reproducible hypothesis profile."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# derandomize: every run draws the same examples, so a failure reproduces;
# no example database.
settings.register_profile(
    "anosovlab", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("anosovlab")

# hypothesis still writes its constants cache, unicode tables and failure
# patches under its home, .hypothesis/ in the working directory by default:
# give it a temporary one, removed at the end of the session, so runs leave
# nothing behind in the checkout
_HOME = tempfile.mkdtemp(prefix="anosovlab-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HOME, ignore_errors=True)
