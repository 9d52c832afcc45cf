"""Scheme advisor: pick a work-partitioning scheme from measured profiles.

The paper closes hoping its findings "provide a more systematic way of
designing and implementing applications for this environment in a
performance and energy efficient manner".  This module is that system: a
small planner that

1. **profiles** a query workload once (candidate/result volumes, per-phase
   client and server cycles — exactly the inputs of the paper's section-4.1
   model), then
2. **advises**, for any operating point (bandwidth, distance, clock) and
   objective (energy / latency / a weighted blend), which Table 1 scheme to
   use — *without* re-running the workload, by pricing each scheme's plans
   at the requested point.

Because the advisor plans and prices real plans, through the same batched
planner and grid pricer as the figure benches, rather than the closed-form
model, its verdicts coincide with the benches by construction; the analytic
model remains available for back-of-envelope explanations
(:mod:`repro.core.analytic`).  Tests check the advisor returns the measured
winner across the evaluation grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batchplan import plan_workload_batched
from repro.core.executor import Environment, Policy, QueryPlan
from repro.core.gridrun import price_grid
from repro.core.queries import Query, QueryKind
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig

__all__ = ["Objective", "WorkloadProfile", "SchemeAdvisor"]

#: The schemes that split at the filter/refine boundary, which NN/k-NN
#: queries (best-first search, no such boundary) cannot run.
_FILTER_SPLIT = (Scheme.FILTER_CLIENT_REFINE_SERVER, Scheme.FILTER_SERVER_REFINE_CLIENT)


@dataclass(frozen=True)
class Objective:
    """What the device is optimizing.

    ``energy_weight`` in [0, 1]: 1.0 = pure battery, 0.0 = pure latency.
    Blended scores normalize each metric by the best scheme's value, so the
    weight trades relative regrets rather than joules against seconds.
    """

    energy_weight: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.energy_weight <= 1.0):
            raise ValueError(
                f"energy_weight must be in [0, 1], got {self.energy_weight}"
            )

    @classmethod
    def battery(cls) -> "Objective":
        """Minimize client energy."""
        return cls(1.0)

    @classmethod
    def latency(cls) -> "Objective":
        """Minimize end-to-end time."""
        return cls(0.0)


@dataclass
class WorkloadProfile:
    """Plans for one workload under every applicable scheme."""

    kind: QueryKind
    plans: Dict[str, Tuple[SchemeConfig, Sequence[QueryPlan]]]

    @property
    def schemes(self) -> List[SchemeConfig]:
        """The candidate configurations."""
        return [cfg for cfg, _ in self.plans.values()]


class SchemeAdvisor:
    """Profile once, advise for any operating point."""

    def __init__(
        self,
        env: Environment,
        configs: Sequence[SchemeConfig] = ADEQUATE_MEMORY_CONFIGS,
    ) -> None:
        self.env = env
        self.configs = list(configs)

    # ------------------------------------------------------------------
    def profile(self, queries: Sequence[Query]) -> WorkloadProfile:
        """Run the workload's computation under every applicable scheme.

        NN/k-NN workloads automatically restrict to the two "fully at"
        schemes (they have no phase boundary to partition at).
        """
        if not queries:
            raise ValueError("profile() requires at least one query")
        kinds = {q.kind for q in queries}
        if len(kinds) != 1:
            raise ValueError(
                "profile one query kind at a time (the paper's figures do "
                f"too); got {sorted(k.value for k in kinds)}"
            )
        kind = next(iter(kinds))
        configs = [
            cfg
            for cfg in self.configs
            if not (kind is QueryKind.NEAREST_NEIGHBOR and cfg.scheme in _FILTER_SPLIT)
        ]
        planned = plan_workload_batched(self.env, queries, configs)
        return WorkloadProfile(
            kind=kind,
            plans={cfg.label: (cfg, plans) for cfg, plans in zip(configs, planned)},
        )

    # ------------------------------------------------------------------
    def _scores(
        self, profile: WorkloadProfile, policies: List[Policy]
    ) -> List[Dict[str, Tuple[float, float]]]:
        """:meth:`score` at each of ``policies``: one grid call per scheme."""
        out: List[Dict[str, Tuple[float, float]]] = [{} for _ in policies]
        if not out:
            return out
        for label, (_, plans) in profile.plans.items():
            grid = price_grid(plans, policies, self.env)
            for j, scores in enumerate(out):
                r = grid.combine_policy(j)
                scores[label] = (r.energy.total(), r.wall_seconds)
        return out

    def score(
        self, profile: WorkloadProfile, policy: Policy
    ) -> Dict[str, Tuple[float, float]]:
        """``{scheme label: (energy_J, wall_seconds)}`` at ``policy``."""
        return self._scores(profile, [policy])[0]

    @staticmethod
    def _pick(scores: Dict[str, Tuple[float, float]], objective: Objective) -> str:
        """The label minimizing ``objective``'s blend of relative regrets."""
        best_e = min(e for e, _ in scores.values())
        best_t = min(t for _, t in scores.values())
        w = objective.energy_weight

        def blended(label: str) -> float:
            e, t = scores[label]
            return w * (e / best_e) + (1 - w) * (t / best_t)

        return min(scores, key=blended)

    def advise(
        self,
        profile: WorkloadProfile,
        policy: Policy,
        objective: Objective = Objective.battery(),
    ) -> SchemeConfig:
        """The best configuration at ``policy`` for ``objective``."""
        return profile.plans[self._pick(self.score(profile, policy), objective)][0]

    def advise_table(
        self,
        profile: WorkloadProfile,
        bandwidths_bps: Sequence[float],
        distances_m: Sequence[float],
        objective: Objective = Objective.battery(),
        base_policy: Optional[Policy] = None,
        loss_rates: Optional[Sequence[float]] = None,
        loss_burst_frames: Optional[float] = None,
    ) -> List[dict]:
        """The policy table over a (bandwidth, distance[, loss]) grid.

        ``loss_rates`` widens the grid with a lossy-channel axis; its rows
        additionally carry ``loss_rate``.  The default (None) keeps the
        ideal channel and the pre-loss row shape — loss shifts the verdict
        because retransmissions tax chatty schemes more than quiet ones,
        and the advisor sees that through the same pricing path the
        benches use.  Each scheme's plans are priced over the whole grid
        in one call.
        """
        base = base_policy if base_policy is not None else Policy()
        if loss_rates is None:
            lossy = [(None, base)]
        else:
            lossy = [
                (rate, base.with_loss(rate, burst_frames=loss_burst_frames))
                for rate in loss_rates
            ]
        points = [
            (d, rate, b, lbase.with_bandwidth(b).with_distance(d))
            for d in distances_m
            for rate, lbase in lossy
            for b in bandwidths_bps
        ]
        all_scores = self._scores(profile, [policy for *_, policy in points])
        rows: List[dict] = []
        for (d, rate, b, _), scores in zip(points, all_scores):
            pick = self._pick(scores, objective)
            e, t = scores[pick]
            row = {
                "distance_m": d,
                "bandwidth_bps": b,
                "pick": pick,
                "energy_J": e,
                "seconds": t,
            }
            if rate is not None:
                row["loss_rate"] = rate
            rows.append(row)
        return rows
