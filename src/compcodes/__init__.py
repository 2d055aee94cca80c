"""String reconstruction from substring-composition multisets, plus codes
correcting multiset deletions, insertions and skewed substitutions."""

from .channel import ErrorSpec, SplitMix64, apply, random_error
from .codebooks import (
    CodebookSpec,
    enumerate_codebook,
    is_catalan_bertrand,
    is_member,
    is_t_dominated,
    modulus_A,
    rank,
    redundancy_bound,
    size,
    size_lower_bound,
    unrank,
)
from .core import Readout, full_readout
from .kernel import BACKEND
from .oracle import (
    ConfusabilityWitness,
    count_classes,
    find_confusable_pair,
    max_code_bound,
    verify_code_property,
)
from .reconstructor import (
    DecodeReport,
    brute_force_decode,
    decode_deletions,
    decode_insertions,
    decode_skewed,
    reconstruct,
)

__version__ = "0.1.0"
