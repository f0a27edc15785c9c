"""Insertion-loss budget and laser-power sizing.

The chain for one wavelength from laser to detector:

    coupler -> (waveguide propagation + ring through-passes + bends +
    splitters along the path) -> ring drop at the receiver -> photodetector

The laser must deliver ``sensitivity + worst_case_loss + margin`` dBm per
wavelength at the detector; wall-plug power divides by laser efficiency.
All dB arithmetic is exact; conversions to mW happen only at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import OnocConfig, PhotonicDeviceConfig


def db_to_mw(dbm: float) -> float:
    """dBm -> mW."""
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class PathLoss:
    """Loss decomposition for one optical path (all in dB)."""

    waveguide_db: float
    ring_through_db: float
    drop_db: float
    couplers_db: float
    splitters_db: float
    bends_db: float
    detector_db: float

    @property
    def total_db(self) -> float:
        return (
            self.waveguide_db
            + self.ring_through_db
            + self.drop_db
            + self.couplers_db
            + self.splitters_db
            + self.bends_db
            + self.detector_db
        )


class LossBudget:
    """Computes per-path losses and the resulting laser power requirement."""

    def __init__(self, cfg: OnocConfig) -> None:
        self.cfg = cfg
        self.dev: PhotonicDeviceConfig = cfg.devices

    def path_loss(
        self,
        distance_cm: float,
        rings_passed: int,
        splitters: int = 0,
        bends: int = 4,
        couplers: int = 2,
    ) -> PathLoss:
        """Loss of one path given geometry and pass-by device counts."""
        if distance_cm < 0:
            raise ValueError(f"distance must be >= 0, got {distance_cm}")
        if rings_passed < 0 or splitters < 0 or bends < 0 or couplers < 0:
            raise ValueError("device counts must be >= 0")
        d = self.dev
        return PathLoss(
            waveguide_db=distance_cm * d.waveguide_loss_db_cm,
            ring_through_db=rings_passed * d.ring_through_loss_db,
            drop_db=d.ring_drop_loss_db,
            couplers_db=couplers * d.coupler_loss_db,
            splitters_db=splitters * d.splitter_loss_db,
            bends_db=bends * d.bend_loss_db,
            detector_db=d.photodetector_loss_db,
        )

    def required_laser_dbm_per_wavelength(self, worst_loss_db: float) -> float:
        """Per-λ laser output so the worst path still meets sensitivity."""
        if worst_loss_db < 0:
            raise ValueError(f"loss must be >= 0 dB, got {worst_loss_db}")
        return self.dev.detector_sensitivity_dbm + worst_loss_db + self.dev.power_margin_db

    def laser_wallplug_mw(self, worst_loss_db: float, num_wavelengths: int,
                          num_channels: int = 1) -> float:
        """Total electrical laser power for the whole network."""
        if num_wavelengths < 1 or num_channels < 1:
            raise ValueError("need >= 1 wavelength and >= 1 channel")
        per_wl_mw = db_to_mw(self.required_laser_dbm_per_wavelength(worst_loss_db))
        optical_mw = per_wl_mw * num_wavelengths * num_channels
        return optical_mw / self.dev.laser_efficiency

    # ------------------------------------------------- architecture presets
    def crossbar_worst_loss_db(self) -> float:
        """Worst-case MWSR crossbar path: a full loop of the serpentine,
        passing every other node's modulator bank (off-resonance)."""
        from repro.onoc.devices import SerpentineLayout

        layout = SerpentineLayout(self.cfg)
        # Worst writer is one hop downstream of the reader: light traverses
        # nearly the whole loop and passes (num_nodes - 1) ring banks.
        return self.path_loss(
            distance_cm=layout.total_length_cm * (self.cfg.num_nodes - 1) / self.cfg.num_nodes,
            rings_passed=self.cfg.num_nodes - 1,
        ).total_db

    def swmr_worst_loss_db(self) -> float:
        """Worst-case SWMR path: like MWSR, nearly a full serpentine loop,
        but the pass-by rings are *detector* banks of the other readers
        (same through-loss per ring in this model)."""
        from repro.onoc.devices import SerpentineLayout

        layout = SerpentineLayout(self.cfg)
        return self.path_loss(
            distance_cm=layout.total_length_cm * (self.cfg.num_nodes - 1) / self.cfg.num_nodes,
            rings_passed=self.cfg.num_nodes - 1,
        ).total_db

    def awgr_worst_loss_db(self, awgr_insertion_db: float = 3.0) -> float:
        """Worst-case λ-router path: die-diagonal feeder waveguides plus the
        AWGR's insertion loss (~2-4 dB for 2012-era devices)."""
        if awgr_insertion_db < 0:
            raise ValueError(f"awgr_insertion_db must be >= 0, got {awgr_insertion_db}")
        diagonal = (self.cfg.chip_width_cm ** 2 + self.cfg.chip_height_cm ** 2) ** 0.5
        return self.path_loss(
            distance_cm=diagonal,
            rings_passed=0,
        ).total_db + awgr_insertion_db

    def mesh_worst_loss_db(self) -> float:
        """Worst-case circuit-mesh path: full diameter, a switch crossing
        (4 pass-by rings) per intermediate router."""
        from repro.onoc.devices import mesh_link_length_cm

        side = self.cfg.mesh_side
        hops = 2 * (side - 1) if side > 1 else 1
        return self.path_loss(
            distance_cm=hops * mesh_link_length_cm(self.cfg),
            rings_passed=max(0, hops - 1) * 4,
            bends=2 * hops,
        ).total_db
