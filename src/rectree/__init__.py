"""rectree: multi-scale vector quantization on dyadic partition trees.

A threshold eta selects the tree cells whose refinement gain is worth
keeping; the outer leaves of the kept subtree tile the unit cube and carry
one code vector each (the cell's center of mass).  The package provides
the empirical fitting pipeline, an exact oracle for finitely supported
distributions, a k-means baseline, synthetic samplers, and an experiment
harness for distortion-decay runs.
"""

from .baselines import KMeansModel, kmeans_distortion, kmeans_fit
from .datagen import GeneratorSpec, normalize, read_dataset, sample, write_dataset
from .errors import DepthCapError, DomainError
from .oracle import DiscreteDistribution, oracle_stats
from .reconstruction import (
    Quantizer,
    RateSchedule,
    decode,
    empirical_distortion,
    encode,
    fit,
    load_codebook,
    quantizer_from_stats,
    save_codebook,
    sweep,
)
from .stats import Dataset, StatsTable, build_stats

__version__ = "0.1.0"
