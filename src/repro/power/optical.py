"""Optical NoC energy model: laser + ring tuning + E/O-O/E conversion.

Static power dominates ONOC budgets: the laser must light the worst-case
loss path continuously, and every microring needs thermal tuning.  Dynamic
energy is modulation/detection per transmitted bit, plus — for the
circuit-switched mesh — the electrical control plane's setup flits.
"""

from __future__ import annotations

from repro.onoc.entity import OpticalEntity
from repro.onoc.loss import LossBudget
from repro.power.electrical import ElectricalEnergyConfig
from repro.power.report import EnergyReport


def optical_energy_report(
    net: OpticalEntity,
    duration_cycles: int,
    ctrl_energy_cfg: ElectricalEnergyConfig | None = None,
) -> EnergyReport:
    """Energy of one optical-network run from its counters and the static
    facts its backend class states (census, worst-loss path, laser
    channels, control plane)."""
    cfg = net.cfg
    dev = cfg.devices
    laser_mw = LossBudget(cfg).laser_wallplug_mw(
        net.worst_loss_db(cfg), cfg.num_wavelengths,
        num_channels=net.laser_channels(cfg))
    census = net.ring_census(cfg)

    bits = net.bits_transmitted
    return EnergyReport(
        name=f"optical_{net.power_label}_{cfg.num_nodes}n",
        duration_cycles=duration_cycles,
        clock_ghz=cfg.clock_ghz,
        static_mw={
            "laser": laser_mw,
            "ring_tuning": census.total * dev.ring_tuning_uw * 1e-3,
        },
        dynamic_pj={
            "modulation": bits * dev.modulation_pj_bit,
            "detection": bits * dev.detection_pj_bit,
            "control_plane": net.control_plane_pj(
                ctrl_energy_cfg or ElectricalEnergyConfig()),
        },
    )
