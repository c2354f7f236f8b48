import sys

import pytest


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored after the test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
