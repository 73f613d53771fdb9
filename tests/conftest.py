import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_values.json"

# HYPOTHESIS_PROFILE=ci runs every property test on a fixed example sequence
# with no per-example deadline, so a slow shared runner cannot fail a test
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def golden():
    """Frozen build-time reference values (regenerate with scripts/generate_golden.py)."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
