"""repro — a reproduction of CLASH (Content and Load-Aware Scalable Hashing).

See docs/ARCHITECTURE.md for the layers and examples/quickstart.py for a first run.
"""

__version__ = "1.0.0"

from repro.core import (
    ClashClient,
    ClashConfig,
    ClashServer,
    ClashSystem,
    DepthSearchResult,
    SplitOutcome,
)
from repro.keys import IdentifierKey, KeyGroup, QuadTreeEncoder, RandomKeyGenerator

__all__ = [
    "__version__",
    "ClashConfig",
    "ClashSystem",
    "ClashServer",
    "ClashClient",
    "DepthSearchResult",
    "SplitOutcome",
    "KeyGroup",
    "IdentifierKey",
    "RandomKeyGenerator",
    "QuadTreeEncoder",
]
