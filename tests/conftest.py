import numpy as np
import pytest

from symspaces.catalog import parse_model

MODEL_SPECS = (
    "sphere(2)",
    "spd(2)",
    "grassmann(1,3)",
    "torus_abelian(sqrt2)",
    "product(sphere(2),sphere(2))",
)


@pytest.fixture(scope="session")
def models():
    return {spec: parse_model(spec) for spec in MODEL_SPECS}


@pytest.fixture(scope="session")
def sphere(models):
    return models["sphere(2)"]


@pytest.fixture(scope="session")
def spd(models):
    return models["spd(2)"]


@pytest.fixture(scope="session")
def grassmann(models):
    return models["grassmann(1,3)"]


@pytest.fixture(scope="session")
def torus(models):
    return models["torus_abelian(sqrt2)"]


@pytest.fixture(scope="session")
def product(models):
    return models["product(sphere(2),sphere(2))"]


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
