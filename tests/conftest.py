import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vmsight import tracemodel
from vmsight.degrade import fit_models_for_corpus, profiles_for_templates
from vmsight.neural import TrainConfig
from vmsight.simgen import ScenarioConfig, default_templates, generate, generate_isolated


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """Build native code into a temporary cache, never into ~/.cache, and
    build it before any test captures stderr, where a fallback notice would
    land."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("VMSIGHT_CACHE_DIR", str(tmp_path_factory.mktemp("native-cache")))
        tracemodel._line_parser()
        yield


@pytest.fixture(scope="session")
def templates():
    return default_templates()


@pytest.fixture(scope="session")
def profiles(templates):
    return profiles_for_templates(templates)


@pytest.fixture(scope="session")
def small_cfg():
    return ScenarioConfig(session_duration_s=120.0, rng_seed=17)


@pytest.fixture(scope="session")
def small_corpus(small_cfg, templates):
    return generate(small_cfg, templates, 200) + generate_isolated(small_cfg, templates, 25)


@pytest.fixture(scope="session")
def trained_store(small_corpus, profiles):
    return fit_models_for_corpus(
        small_corpus, profiles, cfg=TrainConfig(rng_seed=0, max_epochs=120)
    )
