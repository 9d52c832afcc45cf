"""Scheme advisor: verdicts must match the measured winners."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.constants import MBPS
from repro.core.advisor import Objective, SchemeAdvisor
from repro.core.batchplan import plans_equal
from repro.core.executor import Policy, plan_query
from repro.core.queries import KNNQuery
from repro.core.schemes import Scheme
from repro.data.workloads import nn_queries, point_queries, range_queries


@pytest.fixture()
def advisor(env_small):
    return SchemeAdvisor(env_small)


class TestObjective:
    def test_presets(self):
        assert Objective.battery().energy_weight == 1.0
        assert Objective.latency().energy_weight == 0.0

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            Objective(1.5)


class TestProfiling:
    def test_point_profile_covers_all_schemes(self, advisor, pa_small):
        prof = advisor.profile(point_queries(pa_small, 5, seed=107))
        assert len(prof.plans) == 6

    def test_nn_profile_restricts_to_full_schemes(self, advisor, pa_small):
        prof = advisor.profile(nn_queries(pa_small, 5, seed=109))
        assert len(prof.plans) == 3  # FC + both FS variants

    def test_mixed_kinds_rejected(self, advisor, pa_small):
        qs = point_queries(pa_small, 2) + nn_queries(pa_small, 2)
        with pytest.raises(ValueError):
            advisor.profile(qs)

    def test_empty_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.profile([])

    def test_knn_supported(self, advisor, pa_small):
        c = pa_small.extent.center()
        prof = advisor.profile([KNNQuery(c[0], c[1], k=3)])
        assert len(prof.plans) == 3


class TestAdvice:
    def test_point_queries_stay_on_device(self, advisor, pa_small):
        """The paper's conclusion: small-work queries belong on the client,
        for both objectives, at every bandwidth."""
        prof = advisor.profile(point_queries(pa_small, 10, seed=111))
        for bw in (2, 11):
            for obj in (Objective.battery(), Objective.latency()):
                pick = advisor.advise(
                    prof, Policy().with_bandwidth(bw * MBPS), obj
                )
                assert pick.scheme is Scheme.FULLY_CLIENT

    def test_advice_matches_measured_minimum(self, advisor, pa_small):
        """The battery pick must be the argmin of the measured energies."""
        prof = advisor.profile(range_queries(pa_small, 8, seed=113))
        for bw in (2, 6, 11):
            policy = Policy().with_bandwidth(bw * MBPS)
            pick = advisor.advise(prof, policy, Objective.battery())
            scores = advisor.score(prof, policy)
            best = min(scores, key=lambda k: scores[k][0])
            assert pick.label == best

    def test_latency_pick_matches_measured_minimum(self, advisor, pa_small):
        prof = advisor.profile(range_queries(pa_small, 8, seed=113))
        policy = Policy().with_bandwidth(4 * MBPS)
        pick = advisor.advise(prof, policy, Objective.latency())
        scores = advisor.score(prof, policy)
        best = min(scores, key=lambda k: scores[k][1])
        assert pick.label == best

    def test_blend_interpolates(self, advisor, pa_small):
        """A 50/50 blend never picks a scheme dominated on both metrics."""
        prof = advisor.profile(range_queries(pa_small, 8, seed=113))
        policy = Policy().with_bandwidth(4 * MBPS)
        pick = advisor.advise(prof, policy, Objective(0.5))
        scores = advisor.score(prof, policy)
        e, t = scores[pick.label]
        for label, (oe, ot) in scores.items():
            assert not (oe < e and ot < t), f"{label} dominates the pick"

    def test_table_covers_grid(self, advisor, pa_small):
        prof = advisor.profile(range_queries(pa_small, 5, seed=115))
        rows = advisor.advise_table(
            prof,
            bandwidths_bps=[2 * MBPS, 11 * MBPS],
            distances_m=[100.0, 1000.0],
        )
        assert len(rows) == 4
        assert all("pick" in r and r["energy_J"] > 0 for r in rows)
        assert advisor.advise_table(prof, [], [100.0]) == []


class TestSameEngineAsSession:
    """The advisor plans and prices through the engine Session.run uses."""

    def test_profile_equals_scalar_plan_loop(self, advisor, env_small, pa_small):
        qs = range_queries(pa_small, 6, seed=117)
        prof = advisor.profile(qs)
        assert len(prof.plans) == 6
        for cfg, plans in prof.plans.values():
            env_small.reset_caches()
            scalar = [plan_query(q, cfg, env_small) for q in qs]
            assert plans_equal(plans, scalar), cfg.label

    @pytest.mark.parametrize(
        "objective,metric",
        [(Objective.battery(), "energy_j"), (Objective.latency(), "wall_seconds")],
    )
    def test_table_picks_are_session_run_argmins(
        self, advisor, env_small, pa_small, objective, metric
    ):
        qs = range_queries(pa_small, 6, seed=117)
        prof = advisor.profile(qs)
        bandwidths, distances = [2 * MBPS, 6 * MBPS, 11 * MBPS], [100.0, 1000.0]
        rows = advisor.advise_table(prof, bandwidths, distances, objective)
        policies = [
            Policy().with_bandwidth(b).with_distance(d)
            for d in distances
            for b in bandwidths
        ]
        table = Session(env_small).run(qs, schemes=prof.schemes, policies=policies)
        assert len(rows) == len(policies)
        for j, row in enumerate(rows):
            best = min(table.rows[j :: len(policies)], key=lambda r: getattr(r, metric))
            assert row["pick"] == best.scheme
            assert row["energy_J"] == best.energy_j
            assert row["seconds"] == best.wall_seconds
