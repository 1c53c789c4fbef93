"""The per-request fabric schedule loop, kept as the reference.

This is ``build_fabric_schedule`` (``repro/serve/fabric/fabric.py``) as it
stood before the array passes: the same two draws from the seeded
generator, then one Python iteration per request that reads its tenant
and its arrival as numpy scalars and counts each tenant's ordinal in a
list.  The array build must return an equal schedule -- every ``Request``
``==`` its reference twin, every ``arrival_ms`` with the same
``float.hex`` -- and ``tests/test_fabric.py`` asserts that.  Do not
optimise this file.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError
from repro.serve.runtime import Request

__all__ = ["reference_fabric_schedule"]


def reference_fabric_schedule(
    queries, specs, *, seed=0, mean_interarrival_ms=5.0
) -> list[Request]:
    if not specs:
        raise ConfigError("need at least one tenant spec")
    rng = np.random.default_rng((int(seed), 9))
    weights = np.array([s.weight for s in specs], dtype=float)
    weights /= weights.sum()
    choices = rng.choice(len(specs), size=len(queries), p=weights)
    arrivals = np.cumsum(
        rng.exponential(mean_interarrival_ms, size=len(queries))
    )
    per_tenant_seq = [0] * len(specs)
    schedule: list[Request] = []
    for i, query in enumerate(queries):
        t = int(choices[i])
        schedule.append(
            Request(
                session_id=t,
                seq=per_tenant_seq[t],
                global_seq=i,
                arrival_ms=float(arrivals[i]),
                query=query,
            )
        )
        per_tenant_seq[t] += 1
    return schedule
