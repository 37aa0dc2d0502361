"""Data model: records, answers and truth-discovery datasets."""

from .columnar import (
    AUTO_MIN_CLAIMS,
    ColumnarClaims,
    ColumnarHierarchy,
    PairExpansion,
    StaleEncodingError,
    resolve_engine,
)
from .model import (
    Answer,
    DatasetError,
    ObjectContext,
    Record,
    TruthDiscoveryDataset,
)

__all__ = [
    "Record",
    "Answer",
    "TruthDiscoveryDataset",
    "ObjectContext",
    "DatasetError",
    "ColumnarClaims",
    "ColumnarHierarchy",
    "PairExpansion",
    "StaleEncodingError",
    "resolve_engine",
    "AUTO_MIN_CLAIMS",
]
