import pytest

from kw1.cli import _prepare
from kw1.registry import get_example


@pytest.fixture
def make_algebra():
    """Builtin presentation reduced mod p with its p-map attached."""

    def build(name, p):
        return _prepare(get_example(name), p)

    return build


SUITE = ("abelian:2", "nonabelian2", "heisenberg", "sl2", "remark:1:1", "remark:1:2")
