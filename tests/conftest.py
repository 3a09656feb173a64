import numpy as np
import pytest
import scipy.sparse

from gausslift import QuadraticHamiltonian, Species, mat_exp, standard_kahler
from gausslift.errors import InputError


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


def quadratures(rep):
    """Dense complex quadrature matrices (q_1..q_N, p_1..p_N) of a Fock rep,
    the operators its Hamiltonian matrices are built from."""
    return [dense(xi) for xi in rep._xi]


def random_symmetric(rng, n2, scale=1.0):
    a = rng.standard_normal((n2, n2))
    h = (a + a.T) / 2.0
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


def random_antisymmetric(rng, n2, scale=1.0):
    a = rng.standard_normal((n2, n2))
    h = (a - a.T) / 2.0
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


def random_group_element(k, rng, scale=1.0):
    """Connected-component sample e^K with K = Omega h (bosons, h symmetric,
    ||h|| <= scale) or K antisymmetric (fermions)."""
    n2 = k.dim
    a = rng.standard_normal((n2, n2))
    if k.species is Species.BOSON:
        h = (a + a.T) / 2.0
        h *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(h, 2), 1e-12)
        gen = k.omega @ h
    else:
        gen = (a - a.T) / 2.0
        gen *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(gen, 2), 1e-12)
    return mat_exp(gen)


def random_gqh(rng, n_modes, h_scale=1.0, f_scale=1.0, with_c=True):
    n2 = 2 * n_modes
    h = random_symmetric(rng, n2, scale=h_scale * rng.uniform(0.1, 1.0))
    f = rng.standard_normal(n2)
    f *= f_scale * rng.uniform(0.0, 1.0) / max(np.linalg.norm(f), 1e-12)
    c = rng.uniform(-np.pi, np.pi) if with_c else 0.0
    return QuadraticHamiltonian(h=h, f=f, c=c)


def parity_check(rep):
    """Max deviation of e^{i pi (n + 1/2)} from i * parity on the levels of a
    single-mode Fock rep."""
    if rep.n_modes != 1:
        raise InputError("parity identity is checked for a single mode")
    n = np.arange(rep.n_max + 1)
    lhs = np.exp(1j * np.pi * (n + 0.5))
    parity = (-1.0) ** n
    return float(np.max(np.abs(lhs - 1j * parity)))


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
