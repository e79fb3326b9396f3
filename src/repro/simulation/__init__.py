"""State-reading / composite-atomicity simulation (paper section 2.1).

* :mod:`repro.simulation.engine` — the step loop: daemon selects, processes
  move atomically, monitors observe.
* :mod:`repro.simulation.execution` — recorded executions (configurations +
  moves), replayable and renderable as Figure-4 style traces.
* :mod:`repro.simulation.monitors` — pluggable observers: token counts,
  legitimacy, per-rule censuses (Lemma 5's W135/W24 partition), mutual
  inclusion / (l,k)-critical-section checking.
* :mod:`repro.simulation.convergence` — run-until-legitimate drivers and
  convergence-time measurement.
* :mod:`repro.simulation.initial` — initial-configuration generators
  (random, perturbed-legitimate, crafted worst-case-flavoured patterns).

Batched (numpy) convergence over thousands of independent SSRmin instances
lives in :mod:`repro.kernels.batched`.
"""

from repro.simulation.engine import SharedMemorySimulator, SimulationResult
from repro.simulation.execution import Execution, Move
from repro.simulation.monitors import (
    Monitor,
    TokenCountMonitor,
    LegitimacyMonitor,
    RuleCensusMonitor,
    CriticalSectionMonitor,
    InvariantViolation,
)
from repro.simulation.convergence import (
    converge,
    convergence_steps,
    ConvergenceResult,
)
from repro.simulation.serialize import save_execution, load_execution

__all__ = [
    "SharedMemorySimulator",
    "SimulationResult",
    "Execution",
    "Move",
    "Monitor",
    "TokenCountMonitor",
    "LegitimacyMonitor",
    "RuleCensusMonitor",
    "CriticalSectionMonitor",
    "InvariantViolation",
    "converge",
    "convergence_steps",
    "ConvergenceResult",
    "save_execution",
    "load_execution",
]
