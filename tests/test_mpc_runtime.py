"""Unit tests for the MPC machine/partition/runtime layers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest.errors import RoundLimitError
from repro.graphs.generators import build_graph, path_graph, star_graph
from repro.mpc.machine import (
    Machine,
    MachineProgram,
    MemoryBudgetExceeded,
    memory_budget,
)
from repro.mpc.partition import (
    balanced_assignment,
    canonical_ids,
    partition_edges,
    partition_vertices,
)
from repro.congest.message import payload_words
from repro.mpc.runtime import (
    ENVELOPE_WORDS,
    MPCRunStats,
    MPCRuntime,
    ShuffleLoads,
)


class TestMemoryBudget:
    def test_ceil_of_power(self):
        assert memory_budget(100, 0.5) == 10
        assert memory_budget(100, 1.0) == 100
        assert memory_budget(7, 0.5) == 3  # ceil(2.64...)

    def test_at_least_one_word(self):
        assert memory_budget(1, 0.5) == 1

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            memory_budget(10, 0.0)
        with pytest.raises(ValueError):
            memory_budget(10, 2.5)

    def test_near_linear_regime_allowed(self):
        # alpha in (1, 2] is the debug regime: S = n^2 holds any graph.
        assert memory_budget(10, 2.0) == 100

    def test_float_overshoot_snaps_to_integer_root(self):
        # Regression: 3125 ** 0.2 == 5.000000000000001 in floats, so a
        # bare ceil overshot the exact root to 6.
        assert memory_budget(3125, 0.2) == 5
        assert memory_budget(5 ** 5, 1 / 5) == 5
        # Undershoot side (999...8) keeps working too.
        assert memory_budget(1000, 1 / 3) == 10

    @given(
        base=st.integers(min_value=2, max_value=40),
        exponent=st.integers(min_value=2, max_value=8),
    )
    def test_perfect_powers_get_their_exact_root(self, base, exponent):
        # For n = b^e and alpha = 1/e the mathematical budget is exactly
        # b; float noise in n ** alpha (either direction, a couple of
        # ulps) must not change that.
        assert memory_budget(base ** exponent, 1.0 / exponent) == base


class TestMachine:
    def test_charge_within_budget(self):
        machine = Machine(0, budget_words=10)
        machine.charge(6)
        machine.charge(4)
        assert machine.stored_words == 10

    def test_charge_overflow_raises_with_context(self):
        machine = Machine(3, budget_words=5)
        with pytest.raises(MemoryBudgetExceeded, match=r"machine 3 .* 6 words"):
            machine.charge(6, what="edge partition")

    def test_release_never_goes_negative(self):
        machine = Machine(0, budget_words=5)
        machine.charge(3)
        machine.release(10)
        assert machine.stored_words == 0

    def test_io_budget_scales_with_factor(self):
        assert Machine(0, 10, io_factor=8.0).io_budget_words == 80
        assert Machine(0, 10, io_factor=1.0).io_budget_words == 10

    def test_window_budget_is_the_io_bound(self):
        # The compressed compiler's prefetch frontier arrives through one
        # shuffle, so the window budget is the O(S) per-round I/O bound.
        machine = Machine(0, 10, io_factor=8.0)
        assert machine.window_budget_words() == machine.io_budget_words


class TestBalancedAssignment:
    def test_loads_respect_budget(self):
        weights = [5, 3, 3, 2, 2, 2, 1, 1]
        assignment = balanced_assignment(weights, budget_words=6, seed=1)
        assert max(assignment.loads) <= 6
        assert sum(assignment.loads) == sum(weights)

    def test_single_oversized_item_raises(self):
        with pytest.raises(MemoryBudgetExceeded, match="no partition"):
            balanced_assignment([2, 9, 1], budget_words=8, seed=0)

    def test_deterministic_per_seed(self):
        weights = [3, 1, 2, 2, 1, 3, 1]
        a = balanced_assignment(weights, budget_words=5, seed=7)
        b = balanced_assignment(weights, budget_words=5, seed=7)
        assert a.machine_of == b.machine_of
        assert a.digest() == b.digest()

    def test_empty_input_is_one_idle_machine(self):
        assignment = balanced_assignment([], budget_words=4, seed=0)
        assert assignment.num_machines == 1
        assert assignment.machine_of == ()


class TestGraphPartitions:
    def test_vertex_weights_are_adjacency_sizes(self):
        graph = star_graph(8)  # one hub of degree 7
        budget = 10
        assignment = partition_vertices(graph, budget, seed=0)
        _, id_of = canonical_ids(graph)
        hub = max(id_of.values(), key=lambda i: len(list(graph.edges)))
        assert max(assignment.loads) <= budget
        # hub weighs 1 + 7 = 8 words; leaves 1 + 1 = 2.
        assert sum(assignment.loads) == 8 + 7 * 2

    def test_high_degree_vertex_fails_small_budget(self):
        with pytest.raises(MemoryBudgetExceeded):
            partition_vertices(star_graph(20), budget_words=5, seed=0)

    def test_edges_cover_every_edge_once(self):
        graph = build_graph("gnp", 24, seed=3)
        edges, assignment = partition_edges(graph, budget_words=8, seed=3)
        assert len(edges) == graph.number_of_edges()
        assert len(assignment.machine_of) == len(edges)
        assert max(assignment.loads) <= 8


class _Echo(MachineProgram):
    """Sends one payload to machine 0 at start, finishes on any round."""

    def __init__(self, machine, payload):
        super().__init__(machine)
        self.payload = payload

    def on_start(self):
        if self.machine.machine_id != 0:
            return [(0, self.payload)]
        return None

    def on_round(self, inbox):
        self.finish(sorted(inbox))
        return None


class TestRuntime:
    def test_shuffle_word_accounting(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        inboxes = runtime.shuffle(
            [[(1, 7)], [(2, (1, 2, 3))], None]
        )
        # message 0->1: envelope + one small int = 2 words;
        # message 1->2: envelope + three small ints = 4 words.
        assert runtime.stats.messages == 2
        assert runtime.stats.total_words == (ENVELOPE_WORDS + 1) + (
            ENVELOPE_WORDS + 3
        )
        assert runtime.stats.max_in_words == ENVELOPE_WORDS + 3
        assert runtime.stats.max_out_words == ENVELOPE_WORDS + 3
        assert inboxes[1] == [(0, 7)]
        assert inboxes[2] == [(1, (1, 2, 3))]

    def test_shuffle_receive_budget_enforced(self):
        machines = [Machine(0, 100), Machine(1, 2, io_factor=1.0)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded, match="received"):
            runtime.shuffle([[(1, (1, 2, 3, 4))], None])

    def test_shuffle_send_budget_enforced(self):
        machines = [Machine(i, 2, io_factor=1.0) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded, match="sent"):
            runtime.shuffle([[(1, 1), (2, 1)], None, None])

    def test_budget_violation_delivers_nothing(self):
        machines = [Machine(i, 2, io_factor=1.0) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded):
            runtime.shuffle([[(1, (1, 2, 3, 4))], None])
        assert runtime.stats.messages == 0
        assert runtime.stats.rounds == 0

    def test_invalid_destination_rejected(self):
        runtime = MPCRuntime([Machine(0, 10)], word_bits=4)
        with pytest.raises(ValueError, match="invalid machine"):
            runtime.shuffle([[(3, 1)]])

    def test_program_run_collects_outputs(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        programs = [_Echo(m, m.machine_id * 10) for m in machines]
        result = runtime.run(programs)
        # machine 0 hears from 1 and 2 in its first round.
        assert result.outputs[0] == [(1, 10), (2, 20)]
        assert result.stats.rounds >= 1
        assert result.trace[0].round_index == 1

    def test_round_limit(self):
        class Spinner(MachineProgram):
            def on_round(self, inbox):
                return [(0, 1)] if self.machine.machine_id else None

        machines = [Machine(i, 100) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=4)
        with pytest.raises(RoundLimitError):
            runtime.run([Spinner(m) for m in machines], max_rounds=5)

    def test_final_round_outboxes_cross_a_metered_shuffle(self):
        # Regression: messages returned in the round every program
        # finished used to be dropped unmetered — the run loop only
        # shuffles while someone is live.
        class FinalSender(MachineProgram):
            def on_round(self, inbox):
                self.finish(len(inbox))
                if self.machine.machine_id != 0:
                    return [(0, 7)]
                return None

        machines = [Machine(i, 100) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=5)
        result = runtime.run([FinalSender(m) for m in machines])
        # One empty round-1 shuffle, then the final flush with the
        # parting message: envelope + one small int.
        assert result.stats.shuffles == 2
        assert result.stats.messages == 1
        assert result.stats.total_words == ENVELOPE_WORDS + 1
        assert result.trace[-1].active_machines == 0
        assert result.trace[-1].messages == 1

    def test_quiet_final_round_adds_no_flush_shuffle(self):
        # A program set whose last round returns nothing must not pay an
        # extra (empty) shuffle for the flush.
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        result = runtime.run([_Echo(m, m.machine_id) for m in machines])
        assert len(result.trace) == 1
        assert result.trace[0].active_machines == 3

    def test_on_shuffle_hook_observes_every_record(self):
        seen = []
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5, on_shuffle=seen.append)
        runtime.run([_Echo(m, m.machine_id * 10) for m in machines])
        assert seen == runtime.trace
        assert all(isinstance(r.round_index, int) for r in seen)

    def test_stats_addition_word_size_guard(self):
        a = MPCRunStats(rounds=1, total_words=5, word_bits=4)
        b = MPCRunStats(rounds=2, total_words=7, word_bits=4)
        combined = a + b
        assert combined.rounds == 3
        assert combined.total_words == 12
        with pytest.raises(ValueError, match="word sizes"):
            a + MPCRunStats(rounds=1, word_bits=6)

    def test_empty_stats_are_an_additive_identity(self):
        # Regression: an all-zero stats object must be summable into a
        # populated one regardless of its word_bits — both ways round —
        # adopting the populated side's word size.
        populated = MPCRunStats(
            rounds=3, messages=5, total_words=9, congest_rounds=6,
            word_bits=5,
        )
        for empty in (MPCRunStats(), MPCRunStats(word_bits=8)):
            for combined in (populated + empty, empty + populated):
                assert combined == populated
        summed = sum(
            [populated, populated], MPCRunStats()
        )
        assert summed.rounds == 6
        assert summed.congest_rounds == 12
        assert summed.word_bits == 5


class _CountingInjector:
    """Stands in for a fault injector; counts ``before_shuffle`` calls."""

    def __init__(self) -> None:
        self.calls = 0

    def before_shuffle(self, runtime) -> None:
        self.calls += 1


_payloads = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
    st.floats(allow_nan=False),
    st.tuples(st.integers(min_value=0, max_value=300), st.none()),
)


@st.composite
def _shuffle_rounds(draw):
    """Machines with random budgets, rounds of outboxes, a shard split."""
    m = draw(st.integers(min_value=1, max_value=5))
    budgets = draw(st.lists(
        st.integers(min_value=1, max_value=12), min_size=m, max_size=m,
    ))
    rounds = draw(st.lists(
        st.lists(
            st.one_of(st.none(), st.lists(
                st.tuples(st.integers(min_value=0, max_value=m - 1), _payloads),
                max_size=4,
            )),
            min_size=m, max_size=m,
        ),
        min_size=1, max_size=4,
    ))
    shard_of = draw(st.lists(
        st.integers(min_value=0, max_value=2), min_size=m, max_size=m,
    ))
    return budgets, rounds, shard_of


def _shard_summed_loads(outboxes, shard_of, word_bits):
    """Each shard meters its machines' envelopes; the loads are summed."""
    m = len(outboxes)
    per_shard = {}
    for sender, outbox in enumerate(outboxes):
        loads = per_shard.setdefault(shard_of[sender], ShuffleLoads.zeros(m))
        for dest, payload in outbox or ():
            words = ENVELOPE_WORDS + payload_words(payload, word_bits)
            loads.out_words[sender] += words
            loads.in_words[dest] += words
            loads.messages += 1
            loads.words += words
    total = ShuffleLoads.zeros(m)
    for shard in sorted(per_shard):
        total.add(per_shard[shard])
    return total


class TestShuffleInputForms:
    """Envelopes and shard-summed loads meter identically in one core."""

    @given(case=_shuffle_rounds(), active=st.none() | st.integers(0, 5))
    def test_loads_and_envelopes_agree(self, case, active):
        budgets, rounds, shard_of = case
        runtimes = []
        for _form in range(2):
            runtime = MPCRuntime(
                [Machine(i, b, io_factor=1.0) for i, b in enumerate(budgets)],
                word_bits=5,
            )
            runtime.fault_injector = _CountingInjector()
            runtimes.append(runtime)
        by_envelopes, by_loads = runtimes
        for shuffles, outboxes in enumerate(rounds, start=1):
            loads = _shard_summed_loads(outboxes, shard_of, word_bits=5)
            errors = []
            for runtime, traffic in ((by_envelopes, outboxes), (by_loads, loads)):
                try:
                    runtime.shuffle(traffic, active=active)
                except MemoryBudgetExceeded as exc:
                    errors.append(str(exc))
            assert by_envelopes.fault_injector.calls == shuffles
            assert by_loads.fault_injector.calls == shuffles
            assert by_loads.trace == by_envelopes.trace
            assert by_loads.stats == by_envelopes.stats
            if errors:
                # Over budget: same text from both forms, nothing booked.
                assert len(errors) == 2 and errors[0] == errors[1]
                assert len(by_loads.trace) == shuffles - 1
                return

    def test_over_budget_names_lowest_machine_sent_first(self):
        # Machine 1 both sends and receives over budget, machine 2 only
        # receives: the error names machine 1 and its sent load.
        machines = [Machine(i, 3, io_factor=1.0) for i in range(3)]
        for traffic in (
            [None, [(2, (1, 2, 3)), (1, (4, 5, 6))], None],
            ShuffleLoads([0, 4, 4], [0, 8, 0], 2, 8),
        ):
            runtime = MPCRuntime(machines, word_bits=5)
            with pytest.raises(MemoryBudgetExceeded) as excinfo:
                runtime.shuffle(traffic)
            assert str(excinfo.value).startswith(
                "machine 1 sent 8 words in round 1"
            )
            assert runtime.stats.rounds == 0 and not runtime.trace

    def test_loads_form_delivers_nothing(self):
        runtime = MPCRuntime([Machine(i, 100) for i in range(2)], word_bits=5)
        assert runtime.shuffle(ShuffleLoads([2, 0], [0, 2], 1, 2)) is None
        assert runtime.trace[0].messages == 1
        assert runtime.trace[0].max_in_words == 2

    def test_loads_of_wrong_machine_count_rejected(self):
        runtime = MPCRuntime([Machine(i, 100) for i in range(2)], word_bits=5)
        with pytest.raises(ValueError, match="loads of 2 machines"):
            runtime.shuffle(ShuffleLoads.zeros(3))


class _TwoArgError(Exception):
    """A model-level error whose constructor takes two arguments."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(code, detail)


class _FailingProgram(MachineProgram):
    """Machine 1 raises in its first round; the others finish."""

    def on_start(self):
        return None

    def on_round(self, inbox):
        if self.machine.machine_id == 1:
            raise _TwoArgError(3, "machine one gave up")
        self.finish(None)
        return None


class TestSerialExceptionIdentity:
    def test_original_exception_propagates(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(_TwoArgError) as excinfo:
            runtime.run([_FailingProgram(m) for m in machines], workers=1)
        assert type(excinfo.value) is _TwoArgError
        assert excinfo.value.args == (3, "machine one gave up")
        assert any(entry.name == "on_round" for entry in excinfo.traceback)

    def test_serial_run_forks_nothing(self, monkeypatch):
        from repro.mpc import parallel

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a serial run built a fork pool")

        monkeypatch.setattr(parallel.ForkShardPool, "__init__", no_pool)
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        result = runtime.run(
            [_Echo(m, m.machine_id * 10) for m in machines], workers=1
        )
        assert result.outputs[0] == [(1, 10), (2, 20)]
