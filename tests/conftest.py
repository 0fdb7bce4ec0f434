import pytest

from qtchains.builder import extend_all, seed_base_collection


@pytest.fixture(scope="session")
def base_coll():
    return seed_base_collection()


@pytest.fixture(scope="session")
def coll12(base_coll):
    return extend_all(base_coll, 12)


@pytest.fixture(scope="session")
def coll16(base_coll):
    return extend_all(base_coll, 16)
