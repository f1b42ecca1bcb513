"""scrublang: keystroke-log PII scrubbing and cross-platform language analysis.

The package has two halves that meet in the middle:

* a streaming redaction engine that turns per-character keystroke logs into
  PII-free message corpora (``redactor``, ``detectors``, ``spans``);
* an analysis harness that quantifies within-user language differences
  between platforms and cross-domain predictive-model transfer
  (``features``, ``stats``, ``modeling``, ``analysis``).

``scrublang.cli`` exposes both as subcommands; ``scrublang.synth`` builds the
deterministic demo fixture.
"""

__version__ = "0.1.0"

from .detectors import Detector, DetectorSuite, Gazetteer, default_suite
from .features import DictionarySpec, UserCorpus, tokenize
from .modeling import (
    LexiconModel,
    apply_lexicon,
    cross_domain_matrix,
    feature_importance,
    nmf_reduce,
    ridge_fit,
)
from .redactor import (
    KeystrokeEvent,
    RedactionResult,
    SanitizedEntry,
    StreamRedactor,
    detect_token_completion,
    redact_string,
)
from .spans import RedactionSpan
from .stats import bh_fdr, bootstrap_corr_diff, cohens_d_paired, paired_t_test, pearson_r

__all__ = [
    "Detector",
    "DetectorSuite",
    "DictionarySpec",
    "Gazetteer",
    "KeystrokeEvent",
    "LexiconModel",
    "RedactionResult",
    "RedactionSpan",
    "SanitizedEntry",
    "StreamRedactor",
    "UserCorpus",
    "apply_lexicon",
    "bh_fdr",
    "bootstrap_corr_diff",
    "cohens_d_paired",
    "cross_domain_matrix",
    "default_suite",
    "detect_token_completion",
    "feature_importance",
    "nmf_reduce",
    "paired_t_test",
    "pearson_r",
    "redact_string",
    "ridge_fit",
    "tokenize",
]
