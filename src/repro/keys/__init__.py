"""Hierarchical identifier keys, key groups and hash functions.

CLASH operates in the *identifier key space*: every object carries an N-bit
identifier key whose bit prefix encodes hierarchical clustering relationships
(Section 3 of the paper).  This package provides:

* :class:`~repro.keys.identifier.IdentifierKey` — an immutable N-bit key.
* :class:`~repro.keys.keygroup.KeyGroup` — a (virtual key, depth) pair
  identifying the set of keys sharing a d-bit prefix, with the split /
  parent / sibling algebra used by the binary splitting algorithm.
* :class:`~repro.keys.quadtree.QuadTreeEncoder` — the paper's example key
  generator: a geographic area recursively split into four sub-regions, each
  contributing two bits to the key.
* :mod:`~repro.keys.hashing` — identifier-key → hash-key functions (the
  ``f()`` in the paper).
"""

from repro.keys.hashing import Sha1HashFunction, truncate_hash
from repro.keys.identifier import IdentifierKey, RandomKeyGenerator
from repro.keys.keygroup import KeyGroup
from repro.keys.quadtree import GridCell, QuadTreeEncoder

__all__ = [
    "IdentifierKey",
    "RandomKeyGenerator",
    "KeyGroup",
    "QuadTreeEncoder",
    "GridCell",
    "Sha1HashFunction",
    "truncate_hash",
]
