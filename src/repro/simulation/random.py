"""Named, seeded random streams.

Every stochastic component in the simulation (each WAN link's variability
process, each workload source, each sampler's observation noise) draws from
its *own* named stream derived from a single experiment seed. This gives
two properties the experiments rely on:

* **Reproducibility** — the same seed reproduces an experiment exactly.
* **Isolation** — adding a new random consumer (e.g. one more monitoring
  probe) does not perturb the draws seen by unrelated components, so
  A/B comparisons between strategies see identical environments.

Streams are derived with :class:`numpy.random.SeedSequence` spawned from a
stable hash of the stream name, which is the NumPy-recommended way to build
independent generators.

:func:`derive_seed` is the other half: a child *seed* for consumers that
build whole sub-simulations (sweep shards, the scenario generator). It must
not depend on the process (``hash()`` is salted per interpreter), the
platform, or the dict ordering of the key material — otherwise ``--jobs 4``
and ``--jobs 1`` would simulate different universes; SHA-256 over a
canonical JSON encoding gives all three.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

from repro.report import canonical_json

#: Child seeds live in [0, 2**63): positive, and safe for any consumer
#: that stores them in a signed 64-bit field.
SEED_BITS = 63


def shard_key(*parts) -> str:
    """Canonical string form of a shard's identity.

    Accepts any JSON-representable parts (strings, numbers, dicts,
    dataclasses); dict key order does not matter.
    """
    return canonical_json(list(parts))


def derive_seed(root_seed: int, *parts) -> int:
    """Child seed for the shard identified by ``parts`` under ``root_seed``.

    Deterministic across processes, platforms and Python versions;
    different roots or different shard keys give independent seeds.
    """
    material = f"{int(root_seed)}\x1f{shard_key(*parts)}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - SEED_BITS)


class RngRegistry:
    """Factory of independent, deterministic :class:`numpy.random.Generator` s.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.get("wan/NEU->NUS")
    >>> b = rngs.get("wan/NEU->WEU")
    >>> a is rngs.get("wan/NEU->NUS")   # cached per name
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @staticmethod
    def _name_key(name: str) -> int:
        # crc32 is stable across processes and Python versions (unlike
        # hash(), which is salted for str).
        return zlib.crc32(name.encode("utf-8"))

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=(self.seed, self._name_key(name)))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry whose streams are independent of ours.

        Used when one experiment runs several isolated sub-simulations
        (e.g. one per strategy under test) that must each see identical
        environment randomness.
        """
        return RngRegistry(seed=self._name_key(name) ^ self.seed)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"
