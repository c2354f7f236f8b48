import sys

import pytest


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored after the test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def fraction_news(monkeypatch):
    """The argument tuples of every Fraction built while the test runs."""
    from fractions import Fraction

    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: calls.append(args) or new(cls, *args, **kwargs))
    return calls
