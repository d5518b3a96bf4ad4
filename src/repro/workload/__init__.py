"""Client workload generation.

- :mod:`~repro.workload.zipf` — the Zipf(θ) access distribution the paper
  uses for both the measured and the virtual client (θ = 0.95, Table 3),
- :mod:`~repro.workload.noise` — the Noise perturbation of [Acha95a] that
  makes the measured client's access pattern disagree with the broadcast,
- :mod:`~repro.workload.access` — the virtual client's think-time
  request rate shared by the simulation engines.
"""

from repro.workload.zipf import zipf_probabilities, ZipfSampler
from repro.workload.noise import perturb_ranking, noisy_probabilities
from repro.workload.access import think_time_rate

__all__ = [
    "zipf_probabilities",
    "ZipfSampler",
    "perturb_ranking",
    "noisy_probabilities",
    "think_time_rate",
]
