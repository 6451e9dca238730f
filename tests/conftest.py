"""Pin the Hypothesis draws of the tier-1 suite.

Without a seed, every run of the property and state-machine tests draws
fresh examples, so a failure seen once may not come back. Default the
seed to 0; an explicit ``--hypothesis-seed=N`` still wins, so other
seeds stay one flag away. ``derandomize=True`` would pin the draws too,
but Hypothesis lets it override ``--hypothesis-seed``.
"""

import pytest

DEFAULT_HYPOTHESIS_SEED = 0


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Runs before the Hypothesis plugin's own pytest_configure, which
    # reads the option; without Hypothesis the attribute is never read.
    if config.getoption("--hypothesis-seed", None) is None:
        config.option.hypothesis_seed = DEFAULT_HYPOTHESIS_SEED
