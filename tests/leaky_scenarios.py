"""Scenarios that break the replay contract on purpose.

``module:callable`` targets for ``tests/test_determinism.py``: each one
leaks exactly one arm field into its snapshot, so ``verify`` must fail
it on that axis -- and only there.  None builds an engine; a snapshot
is whatever the callable returns.
"""

from repro.determinism import scenario


def _snapshot(rows, tuples_in=3):
    return {"rows": {"q": [repr(row) for row in rows]},
            "stats": {"q": {"tuples_in": tuples_in}}}


def hash_in_row(seed, arm):
    """Builtin ``hash()`` of a str: moves with ``PYTHONHASHSEED``."""
    return _snapshot([(seed, hash("x"))])


@scenario(arms=("block=1", "block=7"))
def block_in_row(seed, arm):
    """Where the stream was cut shows in the output."""
    return _snapshot([(seed, arm.block_size)])


@scenario(crash=("q", 1), arms=("crash=q",))
def row_only_in_crash_arm(seed, arm):
    """Recovery re-emits a row the clean run never produced."""
    return _snapshot([(seed, 1)] + ([(seed, 1)] if arm.crash else []))


@scenario(crash=("q", 1), arms=("crash=q",))
def stats_differ_across_crash(seed, arm):
    """Rows agree, but the replay double-counted an input tuple."""
    return _snapshot([(seed, 1)], tuples_in=4 if arm.crash else 3)
