"""Differential tests for the batched outbox fast path.

A :class:`~repro.congest.message.BatchOutbox` must be indistinguishable
from its expanded ``{target: payload}`` dictionary on every engine
configuration (``v1``, ``v2-dict``, ``v2``): same outputs, same
``RunStats`` word for word, same round events, and the same exceptions
with the same messages.  These tests pin that contract from every angle the
engines distinguish internally — trusted broadcasts, untrusted
``send_many`` targets, oversize payloads, invalid targets, duplicate
targets, self-loop graphs, custom metering subclasses and the
numpy-vectorized validation path.
"""

from __future__ import annotations

import networkx as nx
import pytest
from conftest import record_events
from hypothesis import given, settings, strategies as st

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.errors import CongestionError, ProtocolError
from repro.congest.message import BatchOutbox, payload_words
from repro.congest.network import CongestNetwork
from repro.congest.scheduler import MailboxRing
from repro.graphs.generators import gnp_graph, path_graph, star_graph

ENGINES = ("v1", "v2-dict", "v2")


def run_everywhere(graph, factory, seed=0, network=CongestNetwork, **kwargs):
    """Run ``factory`` under every engine configuration.

    Returns ``{engine: (result, round events)}``.
    """
    runs = {}
    for engine in ENGINES:
        net = network(graph, seed=seed, engine=engine, **kwargs)
        events = record_events(net)
        runs[engine] = (net.run(factory), events)
    return runs


def assert_all_equal(results):
    first, first_events = next(iter(results.values()))
    for engine, (result, events) in results.items():
        assert result.outputs == first.outputs, engine
        assert result.by_id == first.by_id, engine
        assert result.stats == first.stats, engine
        assert events == first_events, engine


def raise_everywhere(graph, factory, exc_type, seed=0, **net_kwargs):
    """Every engine must raise ``exc_type`` with the identical message."""
    messages = set()
    for engine in ENGINES:
        net = CongestNetwork(graph, seed=seed, engine=engine, **net_kwargs)
        with pytest.raises(exc_type) as excinfo:
            net.run(factory)
        messages.add(str(excinfo.value))
    assert len(messages) == 1, messages
    return messages.pop()


class TestBatchOutboxType:
    def test_broadcast_returns_trusted_batch(self):
        net = CongestNetwork(path_graph(4))

        class Probe(NodeAlgorithm):
            def on_start(self):
                outbox = self.broadcast(("x", 1))
                assert isinstance(outbox, BatchOutbox)
                assert outbox.trusted
                assert outbox.targets == self.node.neighbors
                self.finish(None)
                return outbox

            def on_round(self, inbox):
                self.finish(None)
                return None

        net.run(Probe)

    def test_send_many_is_untrusted_and_ordered(self):
        out = BatchOutbox((3, 1, 2), "p")
        assert not out.trusted
        assert list(out.items()) == [(3, "p"), (1, "p"), (2, "p")]
        assert len(out) == 3 and bool(out)
        assert not BatchOutbox((), "p")

    def test_items_matches_dict_expansion(self):
        out = BatchOutbox((0, 2), (7,))
        assert dict(out.items()) == {0: (7,), 2: (7,)}


class _BatchPing(NodeAlgorithm):
    """Broadcast own id (batched); finish after one round."""

    def on_start(self):
        return self.broadcast((self.node.id, 1))

    def on_round(self, inbox):
        self.finish(sorted(inbox))
        return None


class _DictPing(_BatchPing):
    """Identical protocol, dictionary outbox."""

    def on_start(self):
        return {nbr: (self.node.id, 1) for nbr in self.node.neighbors}


class _SendManyPing(_BatchPing):
    """Identical protocol, untrusted send_many over the same targets."""

    def on_start(self):
        return self.send_many(self.node.neighbors, (self.node.id, 1))


@pytest.mark.parametrize(
    "graph",
    [gnp_graph(15, 0.3, seed=2), star_graph(12), path_graph(9)],
    ids=["er", "star", "path"],
)
def test_batch_and_dict_outboxes_identical_everywhere(graph):
    by_form = {
        form: run_everywhere(graph, algo)
        for form, algo in [
            ("batch", _BatchPing),
            ("dict", _DictPing),
            ("send-many", _SendManyPing),
        ]
    }
    for results in by_form.values():
        assert_all_equal(results)
    # Across forms too: a batch is the dict, byte for byte.
    reference, reference_events = by_form["batch"]["v1"]
    for form, results in by_form.items():
        for engine, (result, events) in results.items():
            assert result.stats == reference.stats, (form, engine)
            assert result.outputs == reference.outputs, (form, engine)
            assert events == reference_events, (form, engine)


class _OversizeBroadcast(NodeAlgorithm):
    def on_start(self):
        return self.broadcast(tuple(range(100)))

    def on_round(self, inbox):
        # Reached only in lenient mode (strict runs raise at round 0).
        self.finish(None)
        return None


class _SelfTarget(NodeAlgorithm):
    def on_start(self):
        return self.send_many((self.node.id,), (1,))

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class _InvalidTarget(NodeAlgorithm):
    def on_start(self):
        return self.send_many((self.node.n + 5,), (1,))

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class _NonNeighborTarget(NodeAlgorithm):
    def on_start(self):
        far = (self.node.id + 2) % self.node.n
        return self.send_many((far,), (1,))

    def on_round(self, inbox):
        self.finish(None)
        return None


class _OversizeBeforeInvalid(NodeAlgorithm):
    """First target valid + oversize payload + later invalid target.

    The reference loop meters the first message (raising on oversize)
    before it ever validates the second target, so every engine must
    raise ``CongestionError`` here, not ``ProtocolError``.
    """

    def on_start(self):
        if self.node.id == 0:
            return self.send_many(
                (self.node.neighbors[0], self.node.n + 5),
                tuple(range(100)),
            )
        return None

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class TestErrorParity:
    def test_oversize_batch_congestion_error(self):
        message = raise_everywhere(
            path_graph(4), _OversizeBroadcast, CongestionError
        )
        assert "words" in message

    def test_self_target_rejected(self):
        raise_everywhere(path_graph(4), _SelfTarget, ProtocolError)

    def test_out_of_range_target_rejected(self):
        raise_everywhere(path_graph(4), _InvalidTarget, ProtocolError)

    def test_non_neighbor_target_rejected(self):
        message = raise_everywhere(
            path_graph(6), _NonNeighborTarget, ProtocolError
        )
        assert "not adjacent" in message

    def test_oversize_wins_over_later_invalid_target(self):
        message = raise_everywhere(
            path_graph(4), _OversizeBeforeInvalid, CongestionError
        )
        assert "words" in message

    def test_lenient_mode_meters_oversize_batches(self):
        for engine in ENGINES:
            net = CongestNetwork(
                path_graph(4), word_limit=4, strict=False, engine=engine
            )
            result = net.run(_OversizeBroadcast, max_rounds=5)
            assert result.stats.max_words_per_edge_round > 4


def test_self_loop_graph_broadcast_raises_everywhere():
    graph = path_graph(4)
    graph.add_edge(1, 1)
    message = raise_everywhere(graph, _BatchPing, ProtocolError)
    assert "addressed itself" in message


class _DuplicateTargets(NodeAlgorithm):
    def on_start(self):
        if self.node.id == 0 and self.node.neighbors:
            nbr = self.node.neighbors[0]
            return self.send_many((nbr, nbr, nbr), (5,))
        return None

    def on_round(self, inbox):
        self.finish(dict(inbox))
        return None


def test_duplicate_targets_metered_per_occurrence_delivered_once():
    results = run_everywhere(path_graph(3), _DuplicateTargets)
    assert_all_equal(results)
    result, _ = results["v1"]
    assert result.stats.messages == 3  # each occurrence crosses the edge
    assert result.by_id[1] == {0: (5,)}  # one inbox slot


class _SurchargeNetwork(CongestNetwork):
    """Custom metering must stay honored for batches on every engine."""

    def _meter(self, sender, target, payload, stats):
        super()._meter(sender, target, payload, stats)
        stats.total_words += 1


def test_custom_meter_applies_to_batches_everywhere():
    graph = star_graph(10)
    results = run_everywhere(graph, _BatchPing, 1, _SurchargeNetwork)
    assert_all_equal(results)
    plain = CongestNetwork(graph, seed=1).run(_BatchPing)
    surcharged = results["v2"][0].stats
    assert surcharged.total_words == (
        plain.stats.total_words + plain.stats.messages
    )


class TestNumpyValidationPath:
    """The vectorized validator must be invisible (numpy installed or not)."""

    hub_degree = 64  # comfortably above the numpy batch threshold

    def _star(self):
        return star_graph(self.hub_degree + 1)

    def test_large_send_many_batch_parity(self):
        class HubBlast(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    return self.send_many(self.node.neighbors, (9,))
                return None

            def on_round(self, inbox):
                self.finish(len(inbox))
                return None

        results = run_everywhere(self._star(), HubBlast)
        assert_all_equal(results)

    def test_large_batch_with_one_bad_target_errors_identically(self):
        degree = self.hub_degree

        class HubBlastBad(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    targets = list(self.node.neighbors)
                    targets[degree // 2] = self.node.n + 7
                    return self.send_many(targets, (9,))
                return None

            def on_round(self, inbox):  # pragma: no cover - run raises
                return None

        message = raise_everywhere(self._star(), HubBlastBad, ProtocolError)
        assert "invalid target" in message

    def test_numpy_scalar_targets_rejected_like_reference(self):
        """np.int64 targets coerce into a clean integer ndarray, but the
        reference loop rejects non-Python-int targets — the vectorized
        validator must not accept what v1 raises on."""
        np = pytest.importorskip("numpy")

        class HubBlastNumpyInts(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    targets = [
                        np.int64(t) if i else t
                        for i, t in enumerate(self.node.neighbors)
                    ]
                    return self.send_many(targets, (9,))
                return None

            def on_round(self, inbox):  # pragma: no cover - run raises
                return None

        message = raise_everywhere(
            self._star(), HubBlastNumpyInts, ProtocolError
        )
        assert "invalid target" in message


class TestMailboxRingBatch:
    def test_post_batch_equals_repeated_post(self):
        a, b = MailboxRing(5), MailboxRing(5)
        targets = (1, 3, 4, 3)
        for target in targets:
            a.post(0, target, "m")
        b.post_batch(0, targets, "m")
        assert a.has_pending() and b.has_pending()
        assert a.flip() == b.flip()
        for node in range(5):
            assert a.inbox(node) == b.inbox(node)


# -- property tests: batch metering == per-message metering ----------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.text(max_size=6),
)
payloads = st.one_of(scalars, st.tuples(scalars, scalars, scalars))


class TestBatchMeteringProperty:
    @given(payload=payloads, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_post_batch_meters_word_for_word(self, payload, data):
        """Batched and per-message metering agree on arbitrary payloads.

        One hub sends ``payload`` to a drawn subset of its neighbors; the
        resulting RunStats (messages, words, max-per-edge, cut) must be
        identical whether the outbox is a dict (per-message loop on every
        engine) or a batch (fast path on v2), on all three engines.
        """
        graph = star_graph(9)
        targets = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=8),
                    min_size=1,
                    max_size=8,
                    unique=True,
                )
            )
        )

        def factory_for(form):
            class Hub(NodeAlgorithm):
                def on_start(self):
                    if self.node.id != 0:
                        return None
                    if form == "batch":
                        return self.send_many(targets, payload)
                    return {t: payload for t in targets}

                def on_round(self, inbox):
                    self.finish(sorted(inbox))
                    return None

            return Hub

        expected_words = len(targets) * payload_words(payload, 4)
        all_stats = []
        for form in ("batch", "dict"):
            results = run_everywhere(
                graph,
                factory_for(form),
                strict=False,
                cut=[(0, 1)],
            )
            assert_all_equal(results)
            all_stats.append(results["v2"][0].stats)
        batch_stats, dict_stats = all_stats
        assert batch_stats == dict_stats
        assert batch_stats.total_words == expected_words


def test_v2_dict_engine_is_selectable():
    net = CongestNetwork(path_graph(3), engine="v2-dict")
    assert net.engine_name == "v2-dict"
    with pytest.raises(ValueError):
        CongestNetwork(path_graph(3), engine="v3-batched")


def test_v2_dict_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "v2-dict")
    assert CongestNetwork(path_graph(3)).engine_name == "v2-dict"
    # "batched" was an alias of v2; only canonical names remain.
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    with pytest.raises(ValueError, match="batched"):
        CongestNetwork(path_graph(3))
