"""Energy models: electrical (ORION-style coarse) and optical (loss-budget).

Both produce an :class:`~repro.power.report.EnergyReport` so Table 4 can
compare like for like: static power integrated over the run plus per-event
dynamic energy.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AreaConfig": "repro.power.area",
    "AreaReport": "repro.power.area",
    "electrical_area": "repro.power.area",
    "optical_area": "repro.power.area",
    "ElectricalEnergyConfig": "repro.power.electrical",
    "electrical_energy_report": "repro.power.electrical",
    "optical_energy_report": "repro.power.optical",
    "EnergyReport": "repro.power.report",
})

__all__ = [
    "AreaConfig",
    "AreaReport",
    "ElectricalEnergyConfig",
    "EnergyReport",
    "electrical_area",
    "electrical_energy_report",
    "optical_area",
    "optical_energy_report",
]
