"""E14 (new) -- alert detection latency and false positives.

The paper motivates Gigascope with intrusion detection on live links;
PR 6 adds the trigger layer that turns detector queries into typed
RAISE/CLEAR alert streams.  This experiment scores that layer against
the labeled attack corpus (:mod:`repro.workloads.scenarios`):

1. **Detection latency** (virtual time): first correct RAISE minus the
   ground-truth attack start, per scenario.  With 5-second epochs the
   first evaluable epoch boundary bounds latency at one epoch.

2. **False positives**: RAISE rows outside the labeled window or naming
   the wrong subject -- plus the flash-crowd negative control, where
   the SYN and scan triggers must stay silent outright.

3. **Detection under adaptive shedding**: a per-packet firehose query
   over a bounded channel pressures the AIMD controller into shedding
   most packets at the LFTA gates; kept packets carry Horvitz-Thompson
   weight 1/rate, so the detectors' COUNT/SUM epochs stay unbiased and
   every attack is still caught (the ISSUE's accuracy-survives claim).

Results land in BENCH_E14.json.  ``GS_E14_SMOKE=1`` shrinks the corpus
for CI.
"""

import json
import os
from pathlib import Path

from repro import Gigascope
from repro.net.packet import int_to_ip
from repro.workloads import scenarios

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = os.environ.get("GS_E14_SMOKE") == "1"
EPOCH = 5.0

SYN_WATCH = """
    DEFINE query_name syn_watch;
    Select tb, destIP, count(*) as syns
    From tcp Where tcpflags & 18 = 2
    Group by time/5 as tb, destIP
"""
SCAN_WATCH = """
    DEFINE query_name scan_watch;
    Select tb, srcIP, count(*) as probes
    From tcp Where tcpflags & 18 = 2
    Group by time/5 as tb, srcIP
"""
AMP_WATCH = """
    DEFINE query_name amp_watch;
    Select tb, destIP, sum(len) as bytes
    From udp Where srcPort = 53
    Group by time/5 as tb, destIP
"""
# The pressure generator for the shedding arm: the regex predicate is
# HFTA-resident, so the LFTA forwards one row per packet through a
# bounded channel and the AIMD loop sees sustained drops.
FIREHOSE = """
    DEFINE query_name firehose;
    Select time, len From tcp Where str_match_regex(data, '.*')
"""

SYN_TRIGGER = ("synflood:on=syn_watch,key=destIP,when=sum(syns) > 400,"
               "epoch=5,raise_for=1,clear_for=2,severity=critical")
SCAN_TRIGGER = ("portscan:on=scan_watch,key=srcIP,when=sum(probes) > 150,"
                "epoch=5,raise_for=1,clear_for=2,severity=warning")
AMP_TRIGGER = ("dnsamp:on=amp_watch,key=destIP,when=sum(bytes) > 500000,"
               "epoch=5,raise_for=1,clear_for=2,severity=critical")


def build_corpus():
    """(scenario, queries, trigger specs, expected trigger name) per kind.

    ``expected`` is None for the negative control: every RAISE it
    produces is a false positive by definition.
    """
    if SMOKE:
        common = dict(duration_s=24.0, start=8.0, background_mbps=3.0)
        return {
            "syn_flood": (scenarios.syn_flood(attack_s=8.0, pps=400.0,
                                              **common),
                          SYN_WATCH, [SYN_TRIGGER], "synflood"),
            "port_scan": (scenarios.port_scan(scan_s=8.0, ports=600,
                                              **common),
                          SCAN_WATCH, [SCAN_TRIGGER], "portscan"),
            "dns_amplification": (scenarios.dns_amplification(
                                      attack_s=8.0, pps=150.0,
                                      reflectors=40, **common),
                                  AMP_WATCH, [AMP_TRIGGER], "dnsamp"),
            "flash_crowd": (scenarios.flash_crowd(crowd_s=8.0, clients=100,
                                                  **common),
                            SYN_WATCH + ";" + SCAN_WATCH,
                            [SYN_TRIGGER, SCAN_TRIGGER], None),
        }
    common = dict(duration_s=50.0, background_mbps=6.0)
    return {
        "syn_flood": (scenarios.syn_flood(pps=800.0, **common),
                      SYN_WATCH, [SYN_TRIGGER], "synflood"),
        "port_scan": (scenarios.port_scan(**common),
                      SCAN_WATCH, [SCAN_TRIGGER], "portscan"),
        "dns_amplification": (scenarios.dns_amplification(pps=300.0,
                                                          **common),
                              AMP_WATCH, [AMP_TRIGGER], "dnsamp"),
        "flash_crowd": (scenarios.flash_crowd(**common),
                        SYN_WATCH + ";" + SCAN_WATCH,
                        [SYN_TRIGGER, SCAN_TRIGGER], None),
    }


def run_arm(scenario, queries, triggers, shed):
    if shed:
        gs = Gigascope(heartbeat_interval=0.5, channel_capacity=64)
        gs.add_queries(queries + ";" + FIREHOSE)
        gs.enable_shedding("adaptive")
    else:
        gs = Gigascope(heartbeat_interval=0.5)
        gs.add_queries(queries)
    gs.enable_alerts(triggers)
    alerts = gs.subscribe("alerts")
    gs.start()
    gs.feed(scenario.packets, pump_every=256)
    gs.flush()
    return alerts.poll(), gs


def score(rows, trigger_name, scenario):
    """Latency + false positives for one trigger against ground truth."""
    raises = [row for row in rows
              if row[3] == b"RAISE" and row[2].decode() == trigger_name]
    subject = int_to_ip(scenario.subject_ip).encode("ascii")
    lo, hi = scenario.window
    correct = [row for row in raises
               if row[5] == subject and lo <= row[0] <= hi + 2 * EPOCH]
    return {
        "raises": len(raises),
        "detected": bool(correct),
        "detection_latency_s": (correct[0][0] - lo) if correct else None,
        "false_positives": len(raises) - len(correct),
    }


def test_e14_alert_detection():
    corpus = build_corpus()
    results = {}
    print(f"\nE14 alert detection ({'smoke' if SMOKE else 'full'} corpus, "
          f"{EPOCH:.0f}s epochs)")
    print(f"{'scenario':<20}{'arm':<10}{'detected':>9}{'latency':>9}"
          f"{'FPs':>5}{'shed':>7}")

    for kind, (scenario, queries, triggers, expected) in corpus.items():
        entry = {"window": list(scenario.window),
                 "subject": int_to_ip(scenario.subject_ip),
                 "packets": len(scenario.packets)}
        for arm, shed in (("baseline", False), ("shed", True)):
            rows, gs = run_arm(scenario, queries, triggers, shed)
            shed_fraction = gs.overload_report().get("shed_fraction", 0.0)
            trigger_names = [spec.split(":", 1)[0] for spec in triggers]
            scores = {name: score(rows, name, scenario)
                      for name in trigger_names}
            entry[arm] = {"triggers": scores,
                          "shed_fraction": shed_fraction}

            if expected is None:
                # Negative control: nothing may fire, shed or not.
                for name, result in scores.items():
                    assert result["raises"] == 0, (kind, arm, name, result)
                detected, latency, fps = False, None, 0
            else:
                result = scores[expected]
                # Every attack is caught within two epochs of its start,
                # at the right subject, with no stray RAISEs -- in the
                # shedding arm too (Horvitz-Thompson keeps the epoch
                # aggregates unbiased).
                assert result["detected"], (kind, arm, result)
                assert result["detection_latency_s"] <= 2 * EPOCH, \
                    (kind, arm, result)
                assert result["false_positives"] == 0, (kind, arm, result)
                detected = True
                latency = result["detection_latency_s"]
                fps = result["false_positives"]
            if shed:
                assert shed_fraction > 0.0, \
                    (kind, "adaptive controller never shed")
            latency_text = f"{latency:.1f}s" if latency is not None else "-"
            print(f"{kind:<20}{arm:<10}{str(detected):>9}"
                  f"{latency_text:>9}{fps:>5}{shed_fraction:>7.1%}")
        results[kind] = entry

    (REPO_ROOT / "BENCH_E14.json").write_text(json.dumps({
        "experiment": "E14 alert detection latency and false positives",
        "smoke": SMOKE,
        "epoch_s": EPOCH,
        "detectors": {"synflood": SYN_TRIGGER, "portscan": SCAN_TRIGGER,
                      "dnsamp": AMP_TRIGGER},
        "scenarios": results,
    }, indent=2) + "\n")
    print(f"-> {REPO_ROOT / 'BENCH_E14.json'}")
