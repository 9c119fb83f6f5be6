"""Stress regimes: *how* a scenario ages, beyond the fresh NBTI default.

Every campaign up to now aged factory-fresh devices under NBTI only.  A
:class:`StressRegime` widens that axis in three orthogonal directions:

* **Burn-in pre-stress** — an initial-Vth-shift phase applied *before*
  cycle 0.  The shift is computed from the scenario's own calibrated
  NBTI model (``delta_vth(burn_in_alpha, burn_in_years)``) and threaded
  through the process-variation sampler as a constant offset, so the
  sensors, the most-degraded ranking and the delay projections all see
  pre-aged devices.  The additive treatment is a first-order model: a
  pre-stressed device in reality accumulates slightly *less* further
  shift (sqrt-of-time saturation); see docs/AGING.md.
* **Joint NBTI+PBTI accounting** — a second calibrated
  :class:`~repro.nbti.model.NBTIModel` instance for the NMOS
  (electron-trapping) orientation, summed into the effective |Vth| by
  :class:`~repro.nbti.transistor.PMOSDevice`.  The stress probability is
  the same powered fraction the NBTI duty-cycle counter tracks — a
  rail-gated buffer removes bias from both device flavours — so no hot
  path changes and both engines (stepped, SoA) stay bit-identical.
* **A technology override** — e.g. the FinFET-flavored
  :data:`~repro.nbti.constants.TECH_14NM_FINFET` node for the PBTI
  regimes, where the high-k gate stack makes PBTI first-class.

The **rejuvenation policy family** (scheduled deep-recovery windows)
lives in :mod:`repro.core.policies`; regimes and policies compose freely
because they touch disjoint mechanisms (device physics vs. gating
schedule).

The default regime, ``"fresh"``, is a provable no-op: no Vth offset, no
PBTI model, no technology override — byte-identical outputs, enforced by
``tests/test_regime.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.nbti.constants import (
    PBTI_ANCHOR_DELTA_VTH,
    SECONDS_PER_YEAR,
    TechnologyNode,
    get_technology,
)
from repro.nbti.model import NBTIModel


@dataclasses.dataclass(frozen=True)
class StressRegime:
    """One named aging regime: burn-in, PBTI and technology knobs.

    Attributes
    ----------
    name:
        Machine name used by :class:`ScenarioConfig.regime`, the CLI
        ``--regime`` flag and the DSE ``regime`` axis.
    burn_in_years, burn_in_alpha:
        Duration and stress probability of the pre-cycle-0 burn-in
        phase.  ``burn_in_years == 0`` disables burn-in entirely.
    pbti:
        Whether to attach the PBTI companion model to every device.
    pbti_anchor_delta_vth:
        Calibration anchor of the PBTI model (|dVth| after three years
        at 100 % stress).
    technology:
        Optional :class:`TechnologyNode` *name* overriding the
        scenario's default node (``None`` keeps the 45 nm default).
    """

    name: str = "fresh"
    burn_in_years: float = 0.0
    burn_in_alpha: float = 1.0
    pbti: bool = False
    pbti_anchor_delta_vth: float = PBTI_ANCHOR_DELTA_VTH
    technology: Optional[str] = None

    def __post_init__(self) -> None:
        if self.burn_in_years < 0.0:
            raise ValueError(f"burn_in_years must be >= 0, got {self.burn_in_years}")
        if not 0.0 < self.burn_in_alpha <= 1.0:
            raise ValueError(f"burn_in_alpha must be in (0, 1], got {self.burn_in_alpha}")
        if self.pbti_anchor_delta_vth <= 0.0:
            raise ValueError(
                f"pbti_anchor_delta_vth must be positive, got {self.pbti_anchor_delta_vth}"
            )
        if self.technology is not None:
            get_technology(self.technology)  # fail fast on unknown nodes

    @property
    def is_fresh(self) -> bool:
        """True when the regime changes nothing about the simulation."""
        return (
            self.burn_in_years == 0.0
            and not self.pbti
            and self.technology is None
        )

    def resolve_technology(self, default: TechnologyNode) -> TechnologyNode:
        """The technology node this regime simulates on."""
        if self.technology is None:
            return default
        return get_technology(self.technology)

    def burn_in_shift(self, model: NBTIModel) -> float:
        """Initial-Vth offset (volts) of the burn-in phase, or 0.0.

        Computed from the scenario's own calibrated model so the offset
        scales consistently with the technology node and any anchor
        overrides.
        """
        if self.burn_in_years == 0.0:
            return 0.0
        return model.delta_vth(
            self.burn_in_alpha, self.burn_in_years * SECONDS_PER_YEAR
        )

    def pbti_model(self, tech: TechnologyNode) -> Optional[NBTIModel]:
        """The calibrated PBTI companion model, or ``None`` when off."""
        if not self.pbti:
            return None
        return NBTIModel.calibrated_pbti(
            tech=tech, anchor_delta_vth=self.pbti_anchor_delta_vth
        )


#: The built-in regimes, keyed by name.
#:
#: * ``fresh`` — factory-fresh devices, NBTI only (the historical
#:   default; provably a no-op).
#: * ``burn-in`` — six months of full-stress burn-in applied before
#:   cycle 0 (a stress screen / early-life field deployment).
#: * ``nbti-pbti`` — joint NBTI+PBTI accounting on the default node.
#: * ``finfet-pbti`` — joint accounting on the 14 nm FinFET node, where
#:   PBTI genuinely reaches NBTI-class magnitudes.
STRESS_REGIMES = {
    regime.name: regime
    for regime in (
        StressRegime(name="fresh"),
        StressRegime(name="burn-in", burn_in_years=0.5, burn_in_alpha=1.0),
        StressRegime(name="nbti-pbti", pbti=True),
        StressRegime(name="finfet-pbti", pbti=True, technology="14nm-finfet"),
    )
}

#: All regime names, sorted (CLI choices, DSE axis levels).
ALL_REGIMES: Tuple[str, ...] = tuple(sorted(STRESS_REGIMES))


def get_regime(name: str) -> StressRegime:
    """Look up a :class:`StressRegime` by name.

    Raises
    ------
    ValueError
        For unknown regime names (so :meth:`ScenarioConfig.__post_init__`
        and the DSE genome validator reject bad axes before any
        simulator time is spent).
    """
    try:
        return STRESS_REGIMES[name]
    except KeyError:
        known = ", ".join(ALL_REGIMES)
        raise ValueError(f"unknown stress regime {name!r}; known regimes: {known}") from None
