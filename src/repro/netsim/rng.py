"""Deterministic random-number plumbing.

All randomness in the reproduction flows from a single experiment seed.
Subsystems derive independent generators from that seed plus a stable
string label, so adding a new consumer of randomness does not perturb
the streams seen by existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def seed_hasher(root_seed: int, *labels: str) -> "hashlib._Hash":
    """The blake2b state :func:`derive_seed` reaches after ``labels``.

    Hashing is streaming, so a label prefix shared by many derivations
    can be hashed once and ``copy()``-ed per use:
    ``hashed_seed(seed_hasher(s, "a"), "b") == derive_seed(s, "a", "b")``.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(root_seed)).encode("ascii"))
    return _hash_labels(digest, labels)


def hashed_seed(prefix: "hashlib._Hash", *labels: str) -> int:
    """``derive_seed`` continued from a :func:`seed_hasher` state (left untouched)."""
    return int.from_bytes(_hash_labels(prefix.copy(), labels).digest(), "big") >> 1


def _hash_labels(digest: "hashlib._Hash", labels: tuple) -> "hashlib._Hash":
    for label in labels:
        digest.update(b"/")
        digest.update(label.encode("utf-8"))
    return digest


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a stable 63-bit child seed from a root seed and labels.

    The derivation hashes the root seed together with the label path, so
    ``derive_seed(7, "cdn", "mapping")`` is independent from
    ``derive_seed(7, "meridian")`` and stable across runs and Python
    processes (unlike ``hash()``, which is salted).
    """
    return hashed_seed(seed_hasher(root_seed), *labels)


def derive_rng(root_seed: int, *labels: str) -> np.random.Generator:
    """Return a numpy Generator seeded from ``derive_seed``."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


def stable_unit_float(root_seed: int, *labels: str) -> float:
    """A deterministic float in [0, 1) derived from the seed and labels.

    Useful for per-entity static attributes (e.g. a host's access-link
    quality) that must not depend on creation order.
    """
    return unit_float(derive_seed(root_seed, *labels))


def unit_float(seed: int) -> float:
    """Map a derived seed onto [0, 1), as :func:`stable_unit_float` does."""
    return (seed % (2**53)) / float(2**53)
