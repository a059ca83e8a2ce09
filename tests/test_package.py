"""The package namespace: every name it lists can be read from it."""

import pytest

import swapkit


def test_every_listed_name_resolves():
    names = dir(swapkit)
    assert set(swapkit._LAZY) <= set(names)
    for name in names:
        getattr(swapkit, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'unheard_of'"):
        getattr(swapkit, "unheard_of")
