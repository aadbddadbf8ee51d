"""Unit tests for named random streams (repro.sim.rng)."""

from __future__ import annotations

from repro.sim.rng import StreamFactory


class TestStreamFactory:
    def test_same_name_returns_same_stream(self):
        factory = StreamFactory(seed=1)
        assert factory.get("a") is factory.get("a")

    def test_same_seed_same_sequences(self):
        f1, f2 = StreamFactory(seed=9), StreamFactory(seed=9)
        xs = [f1.get("arrivals").random() for _ in range(20)]
        ys = [f2.get("arrivals").random() for _ in range(20)]
        assert xs == ys

    def test_different_names_give_different_sequences(self):
        factory = StreamFactory(seed=3)
        xs = [factory.get("a").random() for _ in range(10)]
        ys = [factory.get("b").random() for _ in range(10)]
        assert xs != ys

    def test_different_seeds_give_different_sequences(self):
        xs = [StreamFactory(seed=1).get("a").random() for _ in range(10)]
        ys = [StreamFactory(seed=2).get("a").random() for _ in range(10)]
        assert xs != ys

    def test_stream_isolation(self):
        """Consuming one stream must not perturb another."""
        factory = StreamFactory(seed=7)
        reference = StreamFactory(seed=7)
        expected = [reference.get("b").random() for _ in range(5)]
        for _ in range(1000):
            factory.get("a").random()  # heavy use of an unrelated stream
        actual = [factory.get("b").random() for _ in range(5)]
        assert actual == expected

    def test_spawn_namespaces_streams(self):
        factory = StreamFactory(seed=5)
        child1 = factory.spawn("rep-1")
        child2 = factory.spawn("rep-2")
        xs = [child1.get("a").random() for _ in range(10)]
        ys = [child2.get("a").random() for _ in range(10)]
        assert xs != ys

    def test_spawn_is_reproducible(self):
        a = StreamFactory(seed=5).spawn("rep-1").get("x").random()
        b = StreamFactory(seed=5).spawn("rep-1").get("x").random()
        assert a == b

    def test_names_lists_created_streams(self):
        factory = StreamFactory(seed=0)
        factory.get("one")
        factory.get("two")
        assert sorted(factory.names()) == ["one", "two"]

    def test_repr_mentions_seed(self):
        assert "seed=11" in repr(StreamFactory(seed=11))

    def test_spawn_same_name_returns_same_child(self):
        factory = StreamFactory(seed=5)
        assert factory.spawn("rep-1") is factory.spawn("rep-1")
