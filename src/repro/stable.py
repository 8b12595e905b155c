"""Process-stable hashing and seeded RNG streams: what the engine's data
path needs of the replay contract (:mod:`repro.determinism` is the rest).

* :func:`stable_hash` -- a crc32 over a canonical encoding of (nested)
  primitive values.  Python's builtin ``hash()`` of str/bytes is
  randomized per process, and of ``None`` follows its address on 3.11;
  every data-path placement decision (the LFTA's direct-mapped table
  slots) routes through this, or through :func:`tuple_hash`, which
  takes builtin ``hash()`` only for a tuple of integers -- a function
  of the values alone.
* :func:`rng_for` / :func:`derive_seed` -- the seeded RNG registry.
  Every data-path consumer of randomness (``DEFINE sample`` gates, the
  overload-control shed gate, workload generators) derives its own
  named, independent ``random.Random`` stream from one engine seed, so
  adding a consumer never perturbs the draws of another.

A plain engine imports this module and not the replay harness, whose
subprocess, scenario and diff machinery it never runs.
"""

from __future__ import annotations

import random
import zlib
from operator import index as _index
from typing import Any

#: every derived seed's starting point; the name keeps the seeds every
#: golden digest was cut with
_NAMESPACE = zlib.crc32(b"repro.determinism")

#: value types :func:`stable_hash` accepts; their ``repr`` is defined by
#: the language, not by the process (no addresses, no hash ordering)
_STABLE_TYPES = (type(None), bool, int, float, str, bytes)


def _canonical(obj: Any) -> bytes:
    """A process-stable byte encoding of a nested primitive value."""
    if isinstance(obj, _STABLE_TYPES):
        return repr(obj).encode("utf-8", "backslashreplace")
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(_canonical(item) for item in obj) + b")"
    raise TypeError(
        f"stable_hash only covers primitives and tuples of them, "
        f"got {type(obj).__name__}"
    )


def stable_hash(obj: Any) -> int:
    """Process-stable 32-bit hash of a group key (or any primitive nest).

    Unlike builtin ``hash()``, the result does not depend on
    ``PYTHONHASHSEED``, so hash-table placement -- and therefore
    collision/ejection behavior -- replays identically across runs.
    """
    return zlib.crc32(_canonical(obj))


def tuple_hash(key: Any) -> int:
    """The LFTA's slot hash for a plan whose group key is all-integer
    (``ExprCompiler.stable_hash_reason`` is None; DESIGN section 18):
    builtin ``hash(key)`` when every part is an integer, else
    :func:`stable_hash`.

    An integer tuple's ``hash`` is a function of its values alone on a
    64-bit build (``sys.hash_info.width``), in every process and under
    every ``PYTHONHASHSEED``.  Nothing else may reach it: ``hash()`` of
    ``bytes``/``str`` follows ``PYTHONHASHSEED``, of ``None`` (on 3.11)
    the object's address, of a NaN its identity.  ``operator.index``
    admits exactly the integers (``bool`` among them, which hashes as
    its value) and raises ``TypeError`` on ``None``, ``bytes``,
    ``str`` and ``float`` -- the check the LFTA's generated probe runs
    on every part that is not an integer by construction.
    """
    try:
        for part in key:
            _index(part)
    except TypeError:
        return stable_hash(key)
    return hash(key)


def derive_seed(seed: int, *names: Any) -> int:
    """Derive an independent 32-bit stream seed from ``seed`` and names.

    Chained crc32 over the engine seed and the consumer's name path,
    e.g. ``derive_seed(7, "lfta.sample", "_fta_q_eth0")``.  Stable
    across processes and insensitive to registration order.
    """
    acc = _NAMESPACE ^ (seed & 0xFFFFFFFF)
    for name in names:
        acc = zlib.crc32(str(name).encode("utf-8"), acc)
    return acc


def rng_for(seed: int, *names: Any) -> random.Random:
    """A named, independent RNG stream from the seeded registry."""
    return random.Random(derive_seed(seed, *names))
