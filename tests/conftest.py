import math

import numpy as np
import pytest

from crackdsm.imaging import AcquisitionConfig
from paper import sample_scene

K_HALF = 2 * math.pi / 0.5  # wavenumber at the benchmark wavelength 0.5


@pytest.fixture
def k():
    return K_HALF


@pytest.fixture
def three_cracks():
    return sample_scene()


@pytest.fixture
def config30(k):
    return AcquisitionConfig(wavenumbers=(k,), n_obs=30,
                             incident_angles=(math.pi / 2,))


@pytest.fixture
def d_up():
    return np.array([0.0, 1.0])
