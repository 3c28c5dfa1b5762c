"""Topology-aware multicast planning.

The planner turns a :class:`~repro.net.topology.Topology` plus a group
id and member set into a :class:`MulticastPlan` — root, tree adjacency,
plane (rail) assignment, and chain hints — which the fabric programs
into switch multicast tables.  ``validate_plan`` /
``validate_disjointness`` prove the invariants (spanning, tree-ness,
plane purity, per-link load) each family promises.
"""

from .plan import (MulticastPlan, PlanError, validate_disjointness,
                   validate_plan)
from .planners import plan_mcast

__all__ = [
    "MulticastPlan",
    "PlanError",
    "plan_mcast",
    "validate_plan",
    "validate_disjointness",
]
