"""Unit tests for RNG registry and tracing."""

from repro.sim import RngRegistry, Trace


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=42).stream("loss")
        b = RngRegistry(seed=42).stream("loss")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_different_streams(self):
        reg = RngRegistry(seed=42)
        xs = [reg.stream("loss").random() for _ in range(5)]
        ys = [reg.stream("jitter").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x")
        b = RngRegistry(seed=2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=0)
        assert reg.stream("a") is reg.stream("a")

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(seed=9)
        s1 = reg1.stream("loss")
        first = [s1.random() for _ in range(3)]

        reg2 = RngRegistry(seed=9)
        reg2.stream("new-consumer")  # extra stream created first
        s2 = reg2.stream("loss")
        assert [s2.random() for _ in range(3)] == first

    def test_spawn_deterministic(self):
        a = RngRegistry(seed=5).spawn("node1")
        b = RngRegistry(seed=5).spawn("node1")
        assert a.seed == b.seed
        assert a.stream("x").random() == b.stream("x").random()

    def test_spawn_children_differ(self):
        reg = RngRegistry(seed=5)
        assert reg.spawn("node1").seed != reg.spawn("node2").seed


class TestTrace:
    def test_emit_and_len(self):
        tr = Trace()
        tr.emit(1.0, "member_down", node="n1", target="n2")
        tr.emit(2.0, "member_up", node="n1", target="n3")
        assert len(tr) == 2

    def test_records_query_by_kind_and_node(self):
        tr = Trace()
        tr.emit(1.0, "a", node="n1")
        tr.emit(2.0, "a", node="n2")
        tr.emit(3.0, "b", node="n1")
        assert len(tr.records(kind="a")) == 2
        assert len(tr.records(node="n1")) == 2
        assert len(tr.records(kind="a", node="n1")) == 1

    def test_records_time_window(self):
        tr = Trace()
        for t in [1.0, 2.0, 3.0, 4.0]:
            tr.emit(t, "tick")
        assert [r.time for r in tr.records(since=2.0, until=3.0)] == [2.0, 3.0]

    def test_first_and_last_with_data_filter(self):
        tr = Trace()
        tr.emit(1.0, "member_down", node="n1", target="x")
        tr.emit(2.0, "member_down", node="n2", target="x")
        tr.emit(3.0, "member_down", node="n3", target="y")
        assert tr.first("member_down", target="x").time == 1.0
        assert tr.last("member_down", target="x").time == 2.0
        assert tr.first("member_down", target="z") is None

    def test_subscribe_live(self):
        tr = Trace()
        seen = []
        tr.subscribe(lambda rec: seen.append(rec.kind))
        tr.emit(1.0, "a")
        tr.emit(2.0, "b")
        assert seen == ["a", "b"]

    def test_clear(self):
        tr = Trace()
        tr.emit(1.0, "a")
        tr.clear()
        assert len(tr) == 0

    def test_iteration_order(self):
        tr = Trace()
        tr.emit(1.0, "a")
        tr.emit(2.0, "b")
        assert [r.kind for r in tr] == ["a", "b"]

    def test_first_last_filter_emitting_node(self):
        """Regression: ``node=`` used to be swallowed as a data filter.

        No record carries ``data["node"]`` (the emitter goes in the
        ``node`` field), so ``first(kind, node=...)`` silently matched
        nothing.  It now filters the emitting node like ``records()``.
        """
        tr = Trace()
        tr.emit(1.0, "member_down", node="n1", target="x")
        tr.emit(2.0, "member_down", node="n2", target="x")
        tr.emit(3.0, "member_down", node="n1", target="y")
        assert tr.first("member_down", node="n1").time == 1.0
        assert tr.last("member_down", node="n1").time == 3.0
        assert tr.first("member_down", node="n2", target="x").time == 2.0
        assert tr.first("member_down", node="n2", target="y") is None
        assert tr.first("member_down", node="absent") is None

    def test_retain_false_streams_only(self):
        tr = Trace(retain=False)
        seen = []
        tr.subscribe(seen.append)
        tr.emit(1.0, "a")
        tr.emit(2.0, "b")
        assert len(tr) == 0
        assert [r.kind for r in seen] == ["a", "b"]
        assert tr.records(kind="a") == []

    def test_count_and_kind_names(self):
        tr = Trace()
        tr.emit(1.0, "a")
        tr.emit(2.0, "b")
        tr.emit(3.0, "a")
        assert tr.count("a") == 2
        assert tr.count("missing") == 0
        assert tr.kind_names() == ["a", "b"]
        tr.clear()
        assert tr.count("a") == 0

    def test_indexed_window_matches_linear_scan(self):
        """The bisected kind index must agree with a brute-force filter."""
        tr = Trace()
        for i in range(50):
            tr.emit(float(i) / 2, "tick" if i % 3 else "tock", node=f"n{i % 4}")
        for since, until in [(None, None), (5.0, None), (None, 20.0), (7.25, 18.0)]:
            expect = [
                r for r in tr
                if r.kind == "tick"
                and (since is None or r.time >= since)
                and (until is None or r.time <= until)
            ]
            assert tr.records(kind="tick", since=since, until=until) == expect

    def test_out_of_order_emits_fall_back_to_linear(self):
        tr = Trace()
        tr.emit(5.0, "a")
        tr.emit(1.0, "a")  # breaks monotonicity
        tr.emit(3.0, "a")
        assert [r.time for r in tr.records(kind="a", since=2.0, until=4.0)] == [3.0]
        assert [r.time for r in tr.records(kind="a")] == [5.0, 1.0, 3.0]
