import pathlib

import pytest
from hypothesis import settings

from ionet import parse_net, parse_lba

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Property tests rerun the same examples on every run, and a slow host
# cannot fail them on time.
settings.register_profile("seeded", derandomize=True, deadline=None)
settings.load_profile("seeded")


def load_net(name):
    return parse_net((FIXTURES / f"{name}.net").read_text())


def load_lba(name):
    return parse_lba((FIXTURES / "lba" / f"{name}.lba").read_text())


@pytest.fixture(scope="session")
def siphon_net():
    return load_net("bimo_siphon")


@pytest.fixture(scope="session")
def witness_net():
    return load_net("bimo_witness")


@pytest.fixture(scope="session")
def pump_net():
    return load_net("bimo_pump")


@pytest.fixture(scope="session")
def fragile_net():
    return load_net("io_fragile")


@pytest.fixture(scope="session")
def weighted_net():
    return load_net("weighted_single")


@pytest.fixture(scope="session")
def dense_net():
    return load_net("bio_dense")
