"""Data model: records, answers and truth-discovery datasets."""

from .columnar import (
    ColumnarClaims,
    ColumnarHierarchy,
    PairExpansion,
    StaleEncodingError,
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
]
