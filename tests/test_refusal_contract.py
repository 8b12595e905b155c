"""Every numeric knob is refused in one set of words (``repro.options``).

One walk over the options table: each entry's switch refuses the same
bad values -- bool, NaN, the infinities, a value below its least (or
at it, where the least is not allowed) or above its greatest, a
fraction for an int, a string -- with a ``ValueError`` naming the
argument and the value.  Each entry with a ``gsq`` flag is refused at
parse time: exit 2, one ``gsq: error:`` line naming the flag and the
value, no traceback, and no output file made.
"""

import math
import re

import pytest

from repro import Gigascope
from repro.cli import _build_parser, main
from repro.options import KNOBS, SWITCHES

QUERY = "DEFINE query_name q; Select time From tcp"


def _engine():
    gs = Gigascope(metrics=False)
    gs.add_query(QUERY)
    return gs


def _started():
    gs = _engine()
    gs.start()
    return gs


def _sharded(**kwargs):
    from repro.shard import ShardedGigascope
    return ShardedGigascope(**{"shards": 2, "metrics": False, **kwargs})


#: switch -> a call of it with the given knobs
CALLS = {
    "Gigascope": lambda **kw: Gigascope(metrics=False, **kw),
    "ShardedGigascope": _sharded,
    "feed": lambda **kw: _started().feed([], **kw),
    "subscribe": lambda **kw: _engine().subscribe("q", **kw),
    "enable_recovery": lambda **kw: _engine().enable_recovery(**kw),
    "enable_replication": lambda **kw: _engine().enable_replication(**kw),
    "enable_telemetry": lambda **kw: _engine().enable_telemetry(**kw),
    "enable_tracing": lambda **kw: _engine().enable_tracing(
        **{"sample_rate": 0.5, **kw}),
}


def bad_values(knob):
    values = [True, False, math.nan, math.inf, -math.inf, "1"]
    if knob.least is not None:
        values.append(knob.least - 1)
        if not knob.least_ok:
            values.append(knob.least)
    if knob.most is not None:
        values.append(knob.most + 1)
    if knob.kind is int:
        values.append(2.5)
    return values


def bad_texts(knob):
    if knob.flag is None:
        return []
    texts = ["nan", "inf", "-inf", "abc"]
    if knob.least is not None:
        texts.append(str(knob.least - 1))
        if not knob.least_ok:
            texts.append(str(knob.least))
    if knob.most is not None:
        texts.append(str(knob.most + 1))
    if knob.kind is int:
        texts.append("2.5")
    return texts


def test_every_switch_has_a_call():
    assert {knob.switch for knob in KNOBS.values()} == set(CALLS)


def cases(values):
    """``pytest.param(knob, value)`` for each knob and each of its
    ``values(knob)``, named ``switch.name=value``."""
    return [pytest.param(knob, value,
                         id=f"{knob.switch}.{knob.name}={value!r}")
            for knob in KNOBS.values() for value in values(knob)]


@pytest.mark.parametrize("knob, value", cases(bad_values))
def test_the_switch_refuses_naming_argument_and_value(knob, value):
    with pytest.raises(ValueError, match=(
            f"^{knob.name} must be .+, got {re.escape(repr(value))}$")):
        CALLS[knob.switch](**{knob.name: value})


@pytest.mark.parametrize("knob", KNOBS.values(),
                         ids=lambda knob: f"{knob.switch}.{knob.name}")
def test_the_bounds_themselves_pass(knob):
    for value in (knob.least if knob.least_ok else None, knob.most):
        if value is not None:
            assert knob.check(value) == value
            assert knob.parse(str(value)) == value
    if knob.none_ok:
        assert knob.check(None) is None


@pytest.mark.parametrize("knob, text", cases(bad_texts))
def test_gsq_refuses_the_flag_at_parse_time(knob, text, tmp_path, capsys):
    out_dir, metrics = tmp_path / "out", tmp_path / "metrics.prom"
    with pytest.raises(SystemExit) as excinfo:
        main(["--synthetic", "1x1", "--query", QUERY,
              "--output", str(out_dir), "--metrics-out", str(metrics),
              f"{knob.flag}={text}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines()
              if line.startswith("gsq: error:")]
    assert len(errors) == 1
    assert knob.flag in errors[0] and text in errors[0]
    assert "Traceback" not in err
    assert not out_dir.exists() and not metrics.exists()


@pytest.mark.parametrize("call", [
    lambda: Gigascope(seed=2.5),
    lambda: Gigascope(seed="x"),
    lambda: Gigascope(seed=math.nan),
    lambda: Gigascope(seed=2**40),
    lambda: _sharded(shards=True),
    lambda: _sharded(shards=2.5),
    lambda: _sharded(barrier_interval=math.nan),
    lambda: _sharded(barrier_interval=0),
    lambda: _sharded(barrier_interval=-1),
    lambda: _sharded(max_restarts=-1),
    lambda: _sharded(max_restarts=2.5),
    lambda: Gigascope().enable_telemetry(profile_every=2.5),
    lambda: Gigascope().enable_tracing(True),
])
def test_values_once_accepted_are_refused(call):
    """A seed outside 32 bits failed at the first ``add_query`` or
    aliased another seed; ``ShardedGigascope(True)`` ran one shard; the
    rest were taken as given."""
    with pytest.raises(ValueError, match="must be"):
        call()


@pytest.mark.parametrize("text", ["-1", "4294967296", "2.5"])
def test_the_replay_seed_is_the_engine_seed(text, capsys):
    from repro.determinism import main as replay
    with pytest.raises(SystemExit) as excinfo:
        replay(["run", "--scenario", "e4", "--seed", text])
    assert excinfo.value.code == 2
    assert ("argument --seed: seed must be an integer in 0..4294967295"
            in capsys.readouterr().err)


def test_each_flag_is_one_knob_of_gsq():
    flags = [knob.flag for knob in KNOBS.values() if knob.flag]
    assert len(flags) == len(set(flags))
    options = {flag for action in _build_parser()._actions
               for flag in action.option_strings}
    assert set(flags) <= options
    assert {flag for _, *rest in SWITCHES.values()
            for flag in rest} <= options


def test_gsq_help_lists_the_same_flags():
    assert sorted(flag for action in _build_parser()._actions
                  for flag in action.option_strings) == [
        "--alert", "--alert-out", "--batch-size", "--channel-capacity",
        "--checkpoint-interval", "--explain", "--fault", "--help",
        "--max-restarts", "--metrics-format", "--metrics-out", "--output",
        "--param", "--pcap", "--pretty-ip", "--promote-after", "--query",
        "--query-file", "--recover", "--replicate", "--replicate-log",
        "--seed", "--shards", "--shed", "--standby", "--stats",
        "--subscribe", "--synthetic", "--telemetry", "--telemetry-interval",
        "--telemetry-out", "--trace-out", "--trace-sample", "-h"]
