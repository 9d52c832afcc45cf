"""QueryService: construction validation, admission edges, degeneration."""

from __future__ import annotations

import math
import time

import pytest

from repro import serve
from repro.api import Session
from repro.constants import MBPS
from repro.core import batchplan
from repro.core.executor import Policy
from repro.core.gridrun import RunLedger
from repro.core.queries import NNQuery, query_key
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.workloads import (
    ClientProfile,
    QueryRequest,
    client_fleet,
    fleet_query_stream,
    range_queries,
)
from repro.serve import SERVE_PLANNERS, VERDICTS, QueryService

FS = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
FCRS = SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=True)

POLICY = Policy().with_bandwidth(2 * MBPS)


def _profile(cid=0, scheme=FS, **kw):
    return ClientProfile(client_id=cid, policy=POLICY, scheme=scheme, **kw)


def _requests(qs, cid=0, spacing_s=1.0, t0=0.0):
    return [
        QueryRequest(client_id=cid, query=q, arrival_s=t0 + k * spacing_s)
        for k, q in enumerate(qs)
    ]


class TestConstruction:
    def test_from_dataset_and_environment(self, pa_small, env_small):
        assert QueryService(pa_small).session.dataset is pa_small
        assert QueryService(env_small).session.env is env_small

    def test_from_shared_engine(self, env_small, pa_small):
        """A shared Session lends the service its environment and ledger."""
        ledger = RunLedger()
        session = Session(env_small, ledger=ledger)
        service = QueryService(session)
        assert service.session is session
        qs = range_queries(pa_small, 3, seed=14)
        session.plan(qs, FS)
        service.serve(_requests(qs), [_profile(0)])
        events = [r["event"] for r in ledger.records]
        assert events[0] == "plan" and events[-1] == "serve"

    def test_shared_engine_rejects_cache_and_ledger(self, env_small):
        session = Session(env_small)
        with pytest.raises(TypeError, match="configured on the shared"):
            QueryService(session, ledger=RunLedger())

    def test_bad_source_type(self):
        with pytest.raises(TypeError, match="SegmentDataset or an Environment"):
            QueryService(42)

    @pytest.mark.parametrize("kw", [{"max_queue": 0}, {"max_batch": 0},
                                    {"batch_window_s": -0.1},
                                    {"batch_window_s": float("inf")},
                                    {"batch_window_s": float("nan")},
                                    {"max_batch": True}, {"max_queue": True},
                                    {"max_batch": 2.0}])
    def test_bad_knobs(self, pa_small, kw):
        with pytest.raises(ValueError):
            QueryService(pa_small, **kw)

    def test_planner_list(self):
        assert SERVE_PLANNERS == ("batched", "serial")
        assert set(VERDICTS) == {
            "served", "rejected-queue", "rejected-battery"
        }


class TestServeValidation:
    def test_unknown_planner(self, env_small):
        with pytest.raises(ValueError, match="unknown planner"):
            QueryService(env_small).serve([], [_profile()], planner="magic")

    def test_duplicate_client_id(self, env_small):
        with pytest.raises(ValueError, match="duplicate client_id"):
            QueryService(env_small).serve([], [_profile(0), _profile(0)])

    def test_fleet_entry_type(self, env_small):
        with pytest.raises(TypeError, match="ClientProfile"):
            QueryService(env_small).serve([], [POLICY])

    def test_unknown_client_in_stream(self, env_small, pa_small):
        reqs = _requests(range_queries(pa_small, 1, seed=3), cid=7)
        with pytest.raises(ValueError, match="unknown client_id"):
            QueryService(env_small).serve(reqs, [_profile(0)])

    def test_scheme_incompatible_query(self, env_small):
        # Filter-split schemes cannot serve NN queries; the service refuses
        # the stream up front rather than failing mid-batch.
        prof = _profile(0, scheme=FCRS)
        reqs = [
            QueryRequest(
                client_id=0, query=NNQuery(0.0, 0.0), arrival_s=0.0
            )
        ]
        with pytest.raises(ValueError):
            QueryService(env_small).serve(reqs, [prof])


class TestAdmission:
    def test_empty_stream(self, env_small):
        report = QueryService(env_small).serve([], [_profile()])
        assert len(report) == 0
        assert report.n_batches == 0
        assert report.qps == 0.0
        assert report.latency_percentile(50) == 0.0
        s = report.summary()
        assert s["n_requests"] == s["n_served"] == 0

    def test_burst_exceeding_queue_bound(self, env_small, pa_small):
        # Six simultaneous arrivals against a 2-slot queue: two admitted,
        # four bounced, nothing lost or double-counted.
        qs = range_queries(pa_small, 6, seed=5)
        reqs = _requests(qs, spacing_s=0.0)
        service = QueryService(
            env_small, max_queue=2, max_batch=1, batch_window_s=0.0
        )
        report = service.serve(reqs, [_profile()])
        assert len(report) == 6
        assert report.n_served == 2
        assert report.n_rejected_queue == 4
        assert report.n_rejected_battery == 0
        for o in report.outcomes:
            if not o.served:
                assert o.energy_j == 0.0 and o.latency_s == 0.0
                assert o.result is None

    def test_battery_exhaustion(self, env_small, pa_small):
        # A budget below one query's energy admits exactly the first query
        # (spent starts at zero) and rejects the rest on battery.
        qs = range_queries(pa_small, 4, seed=6)
        reqs = _requests(qs, spacing_s=1.0)
        fleet = [_profile(0, battery_j=1e-12)]
        report = QueryService(env_small, batch_window_s=0.0).serve(reqs, fleet)
        assert [o.verdict for o in report.outcomes] == [
            "served",
            "rejected-battery",
            "rejected-battery",
            "rejected-battery",
        ]

    def test_mains_powered_never_battery_rejected(self, env_small, pa_small):
        qs = range_queries(pa_small, 3, seed=6)
        report = QueryService(env_small).serve(
            _requests(qs), [_profile(0)]
        )
        assert report.n_served == 3
        assert math.isinf(_profile(0).battery_j)


class TestPhaseData:
    def test_one_phase_call_per_stream(self, env_small, pa_small, monkeypatch):
        """The whole stream is phased in one call before admission: each
        distinct query is computed once, whichever batches repeat it."""
        fleet = client_fleet(4, seed=21)
        reqs = fleet_query_stream(
            pa_small, fleet, duration_s=3.0, seed=23, hot_fraction=1.0, hot_pool=2
        )
        calls, computed = [], []
        phases, compute = serve.compute_query_phases, batchplan._compute_phases

        def counting_phases(env, queries):
            calls.append(len(queries))
            return phases(env, queries)

        def counting_compute(env, todo):
            computed.extend(todo)
            return compute(env, todo)

        monkeypatch.setattr(serve, "compute_query_phases", counting_phases)
        monkeypatch.setattr(batchplan, "_compute_phases", counting_compute)
        service = QueryService(env_small, max_batch=4, batch_window_s=0.1)
        report = service.serve(reqs, fleet)
        assert report.n_batches > 1 and report.n_served == len(reqs)
        assert calls == [len(reqs)]
        keys = [query_key(r.query) for r in reqs]
        assert len(set(keys)) < len(keys)  # the stream repeats queries
        assert len(computed) == len(set(computed)) and set(computed) == set(keys)

    def test_wall_clock_covers_phasing(self, env_small, pa_small, monkeypatch):
        """wall_seconds times the stream's phase call too, as the serial
        planner's clock covers its per-batch traversals."""
        fleet = client_fleet(2, seed=21)
        reqs = fleet_query_stream(pa_small, fleet, duration_s=1.0, seed=23)
        phases = serve.compute_query_phases

        def slow_phases(env, queries):
            time.sleep(0.05)
            return phases(env, queries)

        monkeypatch.setattr(serve, "compute_query_phases", slow_phases)
        report = QueryService(env_small).serve(reqs, fleet)
        assert report.wall_seconds >= 0.05


class TestSingleClientDegeneration:
    def test_bit_for_bit_vs_session(self, env_small, pa_small):
        """A one-client fleet is exactly a Session run of that stream."""
        qs = range_queries(pa_small, 6, seed=9)
        reqs = _requests(qs, spacing_s=0.5)
        service = QueryService(
            env_small, max_batch=4, batch_window_s=0.25
        )
        report = service.serve(reqs, [_profile(0)], planner="batched")
        assert report.n_served == len(qs)
        assert report.n_batches > 1  # the stream really did split into batches

        session = Session(env_small)
        plans = session.plan(qs, FS)
        grid = session.price_grid(plans, [POLICY])
        for i, o in enumerate(report.outcomes):
            ref = grid.result(i, 0)
            assert o.answer_ids == tuple(int(a) for a in plans[i].answer_ids)
            assert o.result.energy.total() == ref.energy.total()
            assert o.result.cycles.total() == ref.cycles.total()
            assert o.result.wall_seconds == ref.wall_seconds
            # Priced costs layer contention on top of the Session result.
            assert o.energy_j == o.result.energy.total() + o.contention_j
            assert o.latency_s == o.queue_wait_s + o.result.wall_seconds

    def test_outcome_metadata(self, env_small, pa_small):
        qs = range_queries(pa_small, 3, seed=10)
        report = QueryService(env_small, batch_window_s=0.1).serve(
            _requests(qs), [_profile(0)]
        )
        for o in report.outcomes:
            assert o.scheme == FS.label
            assert o.batch >= 0
            assert o.queue_wait_s >= 0.1 - 1e-12
            assert o.server_s > 0.0
            rec = o.to_record()
            assert rec["verdict"] == "served"
            assert rec["scheme"] == FS.label


class TestLedger:
    def test_serve_records_events(self, env_small, pa_small):
        qs = range_queries(pa_small, 3, seed=12)
        with RunLedger() as ledger:
            service = QueryService(env_small, ledger=ledger)
            service.serve(_requests(qs), [_profile(0)])
            events = [r["event"] for r in ledger.records]
        assert "serve_batch" in events
        assert events.count("outcome") == 3
        assert events[-1] == "serve"
        summary = [r for r in ledger.records if r["event"] == "serve"][-1]
        assert summary["n_served"] == 3
        assert summary["planner"] == "batched"
