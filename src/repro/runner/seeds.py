"""Per-shard seed derivation: the names live beside the RNG registry."""

from repro.simulation.random import SEED_BITS, derive_seed, shard_key

__all__ = ["SEED_BITS", "derive_seed", "shard_key"]
