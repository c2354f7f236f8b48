import sys
import threading

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


class Parking:
    """Parks one object's build inside its computation, so that a test can
    see whether a read in another thread waits for it."""

    def __init__(self):
        self.parked, self.release = threading.Event(), threading.Event()

    def hold(self):
        """Called inside the build: wait until the test lets it go."""
        self.parked.set()
        self.release.wait(timeout=60)

    def wrap(self, target, compute):
        """`compute`, holding first when called on `target`."""
        def run(obj, *args):
            if obj is target:
                self.hold()
            return compute(obj, *args)
        return run

    def read_beside(self, build, read):
        """Run `build` in a thread until it holds, then `read` in another:
        whether the read was still waiting after 10 s, and what it returned."""
        got = []
        builder = threading.Thread(target=build, daemon=True)
        reader = threading.Thread(target=lambda: got.append(read()), daemon=True)
        builder.start()
        try:
            assert self.parked.wait(timeout=60)
            reader.start()
            reader.join(timeout=10)
            waited = reader.is_alive()
        finally:
            self.release.set()
        builder.join(timeout=60)
        reader.join(timeout=60)
        assert not builder.is_alive() and not reader.is_alive()
        return waited, got


@pytest.fixture
def parking():
    """A `Parking`, released when the test ends."""
    park = Parking()
    yield park
    park.release.set()
