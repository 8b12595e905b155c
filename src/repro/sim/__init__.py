"""The virtual-time performance substrate.

The paper's Section 4 experiment ran on a 733 MHz host with a Tigon
gigabit NIC; this package replaces that testbed with a calibrated
discrete-event model so the experiment's *shape* -- who wins, where the
2% loss knee falls, where interrupt livelock sets in -- is reproducible
on any machine:

* :mod:`repro.sim.cost_model` -- per-operation costs (microseconds)
* :mod:`repro.sim.host` -- the host CPU: interrupt context preempts
  packet processing, producing livelock under overload
* :mod:`repro.sim.disk` -- the dump-to-disk path with long,
  unpredictable flush stalls
* :mod:`repro.sim.capture` -- the four capture stacks of Section 4 and
  the loss-knee search harness

The names below are imported on first access (:mod:`repro._lazy`): the
run-time system reads only the cost model.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(globals(), {
    "repro.sim.cost_model": ("CostModel",),
    "repro.sim.host": ("HostModel",),
    "repro.sim.disk": ("DiskModel",),
    "repro.sim.capture": ("CaptureConfig", "CaptureResult",
                          "CaptureSimulation", "find_loss_knee"),
})
