"""Noise transition matrix estimation from nearest-neighbor consensus
statistics with information-weighted soft cosine similarity."""

from .core import (Dataset, EstimatorConfig, NoiseRatePair, Report, TransitionMatrix,
                   dump_json, load_dataset, save_dataset, save_json)
from .evaluation import DownstreamResult, estimation_error, train_linear
from .hoc import (ConsensusStatistics, HocSolution, count_consensus,
                  model_consensus, solve_transition)
from .infotheory import (MIEstimate, build_weights, estimate_fmi_per_dim,
                         kl_noise_bias, kl_order_gap, practical_gap)
from .noise import (NoiseScheme, avg_noise_rate_from_r, build_transition,
                    inject_noise)
from .pipeline import estimate
from .similarity import (NeighborTriplets, SimilarityWeights,
                         clusterability_rate, get_2nn_triplets, soft_cosine)
from .whitening import WhiteningTransform, apply_whitening, fit_whitening

__version__ = "0.1.0"
