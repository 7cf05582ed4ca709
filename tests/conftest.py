import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def warm_engine():
    """Warm-up so timed checks measure the physics, not first-call imports and cache fills."""
    from twinbeam import fock

    out = fock.apply_beam_splitter(fock.make_fock([1, 0], cutoff=1))
    fock.number_difference_stats(out)
    fock.coincidence_probability(out)
    return True
