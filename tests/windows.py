"""Test helpers that read a chain's steps as whole columns.

A chain holds its steps as pieces and hands its readers a window of
columns at a time (``moves._Steps._windows``); a test that compares or
corrupts the ints of every step joins the windows into the four
columns, and packs corrupted columns back into a chain of one run, and
one that bounds what a reader builds records the windows.
"""

from array import array
from contextlib import contextmanager
from unittest import mock

from glicci import moves
from glicci.moves import Chain


def columns(steps, start=0, stop=None):
    """The (target, parameter, key, code) columns of the steps
    start..stop-1 (to the last by default), as four ``array('q')``."""
    joined = tuple(array("q") for _ in range(4))
    for window in steps._windows(start, len(steps) if stop is None else stop):
        for column, part in zip(joined, window):
            column += part
    return joined


def run_chain(space, start, columns):
    """The chain from ``start`` whose steps are the four ``columns``, held
    as one run of moves as a packed chain holds them; unchecked."""
    to = columns[0]
    return Chain._packed(space, start, ((0, len(to), 0, None, tuple(columns)),) if to else ())


@contextmanager
def recorded():
    """A list that gets the (start, stop) of every window of columns
    built while the context is open."""
    built, build = [], moves._Steps._windows

    def recording(steps, start, stop, *places):
        built.append((start, stop))
        return build(steps, start, stop, *places)

    with mock.patch.object(moves._Steps, "_windows", recording):
        yield built
