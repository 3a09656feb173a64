import numpy as np
import pytest
import scipy.sparse

from gausslift import QuadraticHamiltonian, Species, standard_kahler


@pytest.fixture
def rng():
    return np.random.default_rng(20240913)


@pytest.fixture
def k1():
    return standard_kahler(1)


@pytest.fixture
def k2():
    return standard_kahler(2)


@pytest.fixture
def kf1():
    return standard_kahler(1, Species.FERMION)


@pytest.fixture
def kf2():
    return standard_kahler(2, Species.FERMION)


def dense(op):
    """A Fock operator as a numpy array, whichever storage the rep chose."""
    return op.toarray() if scipy.sparse.issparse(op) else np.asarray(op)


def random_symmetric(rng, n2, scale=1.0):
    a = rng.standard_normal((n2, n2))
    h = (a + a.T) / 2.0
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


def random_antisymmetric(rng, n2, scale=1.0):
    a = rng.standard_normal((n2, n2))
    h = (a - a.T) / 2.0
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


def random_gqh(rng, n_modes, h_scale=1.0, f_scale=1.0, with_c=True):
    n2 = 2 * n_modes
    h = random_symmetric(rng, n2, scale=h_scale * rng.uniform(0.1, 1.0))
    f = rng.standard_normal(n2)
    f *= f_scale * rng.uniform(0.0, 1.0) / max(np.linalg.norm(f), 1e-12)
    c = rng.uniform(-np.pi, np.pi) if with_c else 0.0
    return QuadraticHamiltonian(h=h, f=f, c=c)


# Fig. 2 parameter sets (stable / unstable pair studies)
FIG2_STABLE = (
    np.array([[0.4, 0.2], [0.2, 0.5]]),
    np.array([[0.8, -0.2], [-0.2, 0.5]]),
)
FIG2_UNSTABLE = (
    np.array([[0.4, -0.6], [-0.6, 0.5]]),
    np.array([[0.5, 0.4], [0.4, -0.4]]),
)
FIG2_F = np.array([0.5, 0.5])
