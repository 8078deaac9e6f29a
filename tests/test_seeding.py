import numpy as np
import pytest

from synergy.axioms import _BATCH_TRIALS, check_completeness
from synergy.exceptions import SynergyError
from synergy.seeding import generators


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5, 10**35])
def test_batch_generators_equal_default_rng(seed):
    """Each generator of a batch, seeded in one array pass, starts in the
    state of `np.random.default_rng([seed, t])`: seeds of one, two, three and
    four 32-bit words, counters across batch boundaries, and counters on
    either side of 2**32, where a counter becomes two words of entropy."""
    batches = [(start, min(300, start + _BATCH_TRIALS))
               for start in range(0, 300, _BATCH_TRIALS)]
    for start, stop in [*batches, (2**32 - 2, 2**32 + 2)]:
        batch = list(generators(seed, start, stop))
        assert len(batch) == stop - start
        for t, rng in enumerate(batch, start):
            assert rng.bit_generator.state == np.random.default_rng([seed, t]).bit_generator.state


def test_negative_seed_is_refused_as_default_rng_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="non-negative seed, got -1"):
        next(generators(-1, 0, 1))
    # the library checks refuse it before seeding, as they refuse other bad arguments
    with pytest.raises(SynergyError, match="seed must be an integer >= 0, got -1"):
        check_completeness("shapley", 5, seed=-1)
