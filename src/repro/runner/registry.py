"""The registered campaigns, by name.

:data:`REGISTRY` maps each campaign name to its
:class:`~repro.runner.protocol.Campaign` object, in CLI/choices order.
Generic code (the campaign service, ``repro run``'s choices list,
``repro submit``/``result``) drives any campaign from a
``(name, params-dict)`` pair through the protocol's generic methods:
``make_spec``, ``run``, ``store_for`` and the result codec.
"""

from __future__ import annotations

from typing import Dict

from repro.decide.campaign import DECIDE
from repro.inject.campaign import INJECT
from repro.repair.campaign import REPAIR
from repro.runner.campaigns import IPC, ISOLATION, MONTECARLO
from repro.runner.protocol import Campaign

REGISTRY: Dict[str, Campaign] = {
    c.name: c for c in (ISOLATION, MONTECARLO, IPC, INJECT, DECIDE, REPAIR)
}


def get_campaign(name: str) -> Campaign:
    """Look up a registered campaign; ``KeyError`` lists valid names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(REGISTRY)}"
        ) from None
