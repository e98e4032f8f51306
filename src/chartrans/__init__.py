"""Character-level string transduction with target-corpus features:
many-to-many EM alignment (plus two-pass precision alignment), a
semi-Markov MIRA-trained transducer, and character-LM / word-frequency
bin features integrated into decoding."""

from .core import (
    NULL,
    EvalInstance,
    ParseError,
    TrainingPair,
    ValidationError,
    copy_augment,
    inflection_to_pairs,
    parse_pairs,
    word_accuracy,
)
from .aligner import (
    AlignParams,
    Alignment,
    AlignmentLink,
    DeltaTable,
    backward,
    baseline_align,
    em_train,
    forward,
    forward_insertion_merging,
    pass1_align,
    precision_align,
    viterbi_nbest,
)
from .charlm import BinConfig, CharLM, lm_bin_features, make_bins, score_prefix, train_charlm
from .freqtrie import (
    FreqBinConfig,
    Lexicon,
    build_trie,
    freq_bin_features,
    prefix_count,
    prune_lexicon,
)
from .transducer import (
    Candidate,
    FeatureConfig,
    Model,
    Rule,
    TrainConfig,
    decode_nbest,
    extract_rules,
    loss,
    mira_update,
    train,
)

__version__ = "0.1.0"
