"""Property tests: proxy summary chunking/merging and gateway statistics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.gateway import RequestStats
from repro.core import MembershipProxy, ServiceSummary


@st.composite
def summaries(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    entries = tuple(
        (f"svc{i:03d}", frozenset(draw(st.sets(st.integers(0, 8), max_size=4))))
        for i in range(n)
    )
    return ServiceSummary(entries)


class TestSummaryProperties:
    @given(summaries(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_chunks_partition_exactly(self, summary, max_entries):
        chunks = summary.chunks(max_entries)
        assert all(len(c) <= max_entries for c in chunks)
        reassembled = tuple(e for c in chunks for e in c.services)
        assert reassembled == summary.services
        assert len(chunks) >= 1

    @given(summaries(), st.integers(min_value=1, max_value=16), st.integers(0, 99))
    @settings(max_examples=200, deadline=None)
    def test_merge_of_chunks_reconstructs_summary(self, summary, max_entries, epoch):
        proxy = MembershipProxy.__new__(MembershipProxy)
        proxy.remote = {}
        proxy.runtime = type("R", (), {"now": 1.0})()
        chunks = summary.chunks(max_entries)
        for i, chunk in enumerate(chunks):
            proxy._merge_remote_summary(
                "dc", epoch, chunk.services, final=(i == len(chunks) - 1)
            )
        assert proxy.remote["dc"].summary == summary.as_dict()
        assert proxy.remote["dc"].last_heard == 1.0

    @given(summaries())
    @settings(max_examples=100, deadline=None)
    def test_provides_consistent_with_dict(self, summary):
        d = summary.as_dict()
        for name, parts in d.items():
            assert summary.provides(name, None)
            for p in parts:
                assert summary.provides(name, p)
        assert not summary.provides("no-such-service", None)


class TestRequestStatsProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=60, allow_nan=False),
                st.booleans(),
                st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_add_up(self, records):
        stats = RequestStats()
        for t, ok, lat in records:
            stats.record(t, ok, lat)
        assert stats.completed == sum(1 for _t, ok, _l in records if ok)
        assert stats.failed == sum(1 for _t, ok, _l in records if not ok)
        assert sum(v for _s, v in stats.throughput_series()) == stats.completed
        assert sum(v for _s, v in stats.failure_series()) == stats.failed

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=60, allow_nan=False),
                st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_response_time_bounds(self, records):
        stats = RequestStats()
        for t, lat in records:
            stats.record(t, True, lat)
        mean = stats.mean_response_time()
        lats = [lat for _t, lat in records]
        assert min(lats) - 1e-12 <= mean <= max(lats) + 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=60, allow_nan=False),
                st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
            ),
            max_size=60,
        ),
        st.floats(min_value=0, max_value=30, allow_nan=False),
        st.floats(min_value=31, max_value=61, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_windowed_throughput_counts_window_only(self, records, lo, hi):
        stats = RequestStats()
        for t, lat in records:
            stats.record(t, True, lat)
        expected = sum(1 for t, _l in records if lo <= int(t) < hi)
        assert stats.throughput(lo, hi) * (hi - lo) == pytest_approx(expected)


def pytest_approx(x):
    import pytest

    return pytest.approx(x, rel=1e-9, abs=1e-9)
