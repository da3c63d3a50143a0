"""Seed-stream derivation.

All randomness in the toolkit flows from integer seeds through
`numpy.random.SeedSequence`. Derived streams are labelled with strings
(subcommand or stage name) and optional integer indices, hashed with CRC-32
into the spawn key, so that independent stages of one run never share a
stream yet remain reproducible from the one root seed.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def _key(label: str | int) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    return int(label) & 0xFFFFFFFF


def derive_seed_sequence(root_seed: int, *labels: str | int) -> np.random.SeedSequence:
    """Seed sequence for the stream identified by `labels` under `root_seed` (>= 0)."""
    if root_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {root_seed}")
    return np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(_key(l) for l in labels))


def derive_rng(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Independent generator for the stream identified by `labels`."""
    return np.random.default_rng(derive_seed_sequence(root_seed, *labels))


def derive_int(root_seed: int, *labels: str | int) -> int:
    """Stable 32-bit integer seed derived from `root_seed` and `labels`."""
    return int(derive_seed_sequence(root_seed, *labels).generate_state(1)[0])
