import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from breslow_lab import SurvivalDataset, reference_truth

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ref_truth():
    # Shared so the quadrature caches are built once.
    return reference_truth()


@st.composite
def survival_datasets(draw, min_n=1, max_n=30, min_p=0, max_p=3, with_ties=True):
    """Valid datasets; times optionally snapped to a coarse grid to force ties."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.integers(min_p, max_p))
    snap = with_ties and draw(st.booleans())
    times = np.array(
        draw(
            st.lists(
                st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    if snap:
        times = np.maximum(np.round(times, 1), 0.1)
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    events[draw(st.integers(0, n - 1))] = True
    covs = np.array(
        draw(
            st.lists(
                st.lists(
                    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                    min_size=p,
                    max_size=p,
                ),
                min_size=n,
                max_size=n,
            )
        )
    ).reshape(n, p)
    return SurvivalDataset(times, events, covs)


def random_dataset(rng, n, p, *, tie_fraction=0.3, scale=2.0):
    """Seeded random dataset with a controllable share of tied times."""
    times = rng.exponential(scale, size=n) + 0.05
    snap = rng.random(n) < tie_fraction
    times[snap] = np.round(times[snap], 1) + 0.1
    events = rng.random(n) < 0.7
    if not events.any():
        events[rng.integers(n)] = True
    covs = rng.normal(0.0, 1.0, size=(n, p))
    return SurvivalDataset(times, events, covs)


def digest_tied_p3():
    """The artifact digest's 600-row input: three covariates, weekly ties."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digest.py"
    spec = importlib.util.spec_from_file_location("artifact_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tied_p3()
