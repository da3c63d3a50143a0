"""Seed-stream derivation.

All randomness in the toolkit flows from integer seeds through
`numpy.random.SeedSequence`. Each derived stream is named by one string
label (the stage: "synth", "simulate" or "train"), hashed with CRC-32 into
the spawn key, so that independent stages of one run never share a stream
yet remain reproducible from the one root seed.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def _seed_sequence(root_seed: int, label: str) -> np.random.SeedSequence:
    if root_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {root_seed}")
    return np.random.SeedSequence(entropy=root_seed, spawn_key=(zlib.crc32(label.encode("utf-8")),))


def derive_rng(root_seed: int, label: str) -> np.random.Generator:
    """Independent generator for the stream `label` under `root_seed` (>= 0)."""
    return np.random.default_rng(_seed_sequence(root_seed, label))


def derive_int(root_seed: int, label: str) -> int:
    """Stable 32-bit integer seed for the stream `label` under `root_seed` (>= 0)."""
    return int(_seed_sequence(root_seed, label).generate_state(1)[0])
