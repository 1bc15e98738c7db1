"""Tests for Algorithm 1 (online model selection)."""

import pickle
import pickletools

import numpy as np
import pytest

from repro.core.blocks import BlockSchedule
from repro.core.model_selection import OnlineModelSelection, _BlockRecord
from repro.core.tsallis import tsallis_inf_probabilities
from repro.sim.config import ScenarioConfig
from repro.sim.simulator import Simulator
from repro.spec import RunSpec


def drive(policy, loss_fn, horizon):
    """Run the select/observe loop; return per-slot selections."""
    selections = []
    for t in range(horizon):
        model = policy.select(t)
        policy.observe(t, model, loss_fn(model, t))
        selections.append(model)
    return np.array(selections)


class TestOnlineModelSelection:
    def test_switches_only_at_block_starts(self):
        rng = np.random.default_rng(0)
        policy = OnlineModelSelection(4, horizon=100, switch_cost=3.0, rng=rng)
        selections = drive(policy, lambda m, t: float(m), 100)
        starts = set(policy.schedule.starts.tolist())
        for t in range(1, 100):
            if selections[t] != selections[t - 1]:
                assert t in starts, f"switch at non-boundary slot {t}"

    def test_switch_count_bounded_by_blocks(self):
        rng = np.random.default_rng(1)
        policy = OnlineModelSelection(5, horizon=200, switch_cost=2.0, rng=rng)
        selections = drive(policy, lambda m, t: 1.0, 200)
        switches = 1 + int(np.sum(selections[1:] != selections[:-1]))
        assert switches <= policy.schedule.num_blocks

    def test_concentrates_on_best_arm(self):
        """With a clear gap, the best arm gets the majority of slots."""
        rng = np.random.default_rng(2)
        policy = OnlineModelSelection(4, horizon=3000, switch_cost=0.5, rng=rng)
        noise = np.random.default_rng(3)
        losses = np.array([0.1, 0.9, 0.9, 0.9])

        def loss_fn(m, t):
            return float(np.clip(losses[m] + 0.05 * noise.standard_normal(), 0, 2))

        selections = drive(policy, loss_fn, 3000)
        counts = np.bincount(selections, minlength=4)
        assert counts[0] > 0.5 * 3000
        assert counts[0] == max(counts)

    def test_selection_counts_property(self):
        rng = np.random.default_rng(4)
        policy = OnlineModelSelection(3, horizon=50, switch_cost=1.0, rng=rng)
        drive(policy, lambda m, t: 1.0, 50)
        counts = policy.selection_counts
        assert counts.sum() == 50

    def test_probability_history_valid(self):
        rng = np.random.default_rng(5)
        policy = OnlineModelSelection(3, horizon=60, switch_cost=1.0, rng=rng)
        drive(policy, lambda m, t: float(m), 60)
        history = policy.probability_history
        assert len(history) == policy.schedule.num_blocks
        for p in history:
            assert p.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(p >= 0)

    def test_out_of_order_slots_rejected(self):
        rng = np.random.default_rng(6)
        policy = OnlineModelSelection(3, horizon=100, switch_cost=5.0, rng=rng)
        policy.select(0)
        with pytest.raises(RuntimeError, match="order"):
            # Slot far in the future skips whole blocks.
            policy.select(99)

    def test_observe_wrong_model_rejected(self):
        rng = np.random.default_rng(7)
        policy = OnlineModelSelection(3, horizon=10, switch_cost=1.0, rng=rng)
        model = policy.select(0)
        wrong = (model + 1) % 3
        with pytest.raises(ValueError, match="hosts"):
            policy.observe(0, wrong, 1.0)

    def test_observe_nonfinite_loss_rejected(self):
        rng = np.random.default_rng(8)
        policy = OnlineModelSelection(3, horizon=10, switch_cost=1.0, rng=rng)
        model = policy.select(0)
        with pytest.raises(ValueError):
            policy.observe(0, model, float("inf"))

    def test_slot_outside_horizon_rejected(self):
        rng = np.random.default_rng(9)
        policy = OnlineModelSelection(3, horizon=10, switch_cost=1.0, rng=rng)
        with pytest.raises(ValueError):
            policy.select(10)

    def test_invalid_construction(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            OnlineModelSelection(3, horizon=0, switch_cost=1.0, rng=rng)
        with pytest.raises(ValueError):
            OnlineModelSelection(3, horizon=10, switch_cost=-1.0, rng=rng)

    def test_deterministic_given_rng(self):
        def run(seed):
            policy = OnlineModelSelection(
                4, horizon=80, switch_cost=2.0, rng=np.random.default_rng(seed)
            )
            return drive(policy, lambda m, t: float(m) * 0.2, 80)

        np.testing.assert_array_equal(run(11), run(11))
        assert not np.array_equal(run(11), run(12))

    def test_higher_switch_cost_fewer_switches(self):
        def count_switches(switch_cost):
            rng = np.random.default_rng(13)
            policy = OnlineModelSelection(4, horizon=400, switch_cost=switch_cost, rng=rng)
            selections = drive(policy, lambda m, t: float(m) * 0.1, 400)
            return int(np.sum(selections[1:] != selections[:-1]))

        assert count_switches(10.0) < count_switches(0.5)


class TestObserveBlock:
    """``observe_block(block, losses, lost=k)`` is the per-slot fold in bulk."""

    @staticmethod
    def open_next(policy, block, t):
        """Open ``block`` at slot ``t`` the way a batch driver does."""
        probabilities = tsallis_inf_probabilities(
            policy.cumulative_estimates(), policy.block_eta(block)
        )
        return policy.open_block_with(block, t, probabilities)

    def test_lost_slots_match_per_slot_interleaving(self):
        horizon = 80
        bulk, slotwise = (
            OnlineModelSelection(4, horizon, 1.5, np.random.default_rng(21))
            for _ in range(2)
        )
        gen = np.random.default_rng(8)
        t = 0
        for block, length in enumerate(bulk.schedule.lengths.tolist()):
            losses = gen.uniform(0.0, 3.0, size=length).tolist()
            # Block 1 loses every slot's feedback; the others lose some.
            lost = gen.random(length) < (1.0 if block == 1 else 0.4)
            for s in range(length):
                model = slotwise.select(t + s)
                if lost[s]:
                    slotwise.observe_lost(t + s, model)
                else:
                    slotwise.observe(t + s, model, losses[s])
            assert self.open_next(bulk, block, t) == model
            observed = [loss for loss, gone in zip(losses, lost) if not gone]
            bulk.observe_block(block, observed, lost=int(lost.sum()))
            t += length
            np.testing.assert_array_equal(
                bulk.cumulative_estimates(), slotwise.cumulative_estimates()
            )
            assert bulk.feedback_losses == slotwise.feedback_losses
            np.testing.assert_array_equal(
                bulk.selection_counts, slotwise.selection_counts
            )
            assert bulk.pending_blocks == slotwise.pending_blocks == 0
        assert t == horizon

    def test_all_lost_block_folds_nothing(self):
        policy = OnlineModelSelection(3, 40, 1.0, np.random.default_rng(4))
        model = self.open_next(policy, 0, 0)
        length = int(policy.schedule.lengths[0])
        policy.observe_block(0, [], lost=length)
        assert not policy.cumulative_estimates().any()
        assert policy.feedback_losses == length
        assert policy.selection_counts[model] == length
        assert policy.pending_blocks == 0

    @pytest.mark.parametrize("extra_losses,lost", [(1, 0), (-1, 0), (1, -1)])
    def test_length_mismatch_raises(self, extra_losses, lost):
        policy = OnlineModelSelection(3, 40, 1.0, np.random.default_rng(4))
        self.open_next(policy, 0, 0)
        length = int(policy.schedule.lengths[0])
        with pytest.raises(ValueError, match="spans"):
            policy.observe_block(0, [1.0] * (length + extra_losses), lost=lost)
        assert policy.pending_blocks == 1


def drive_delayed(policy, slots, delay, pending, log, *, flush=False):
    """Select each slot and deliver its feedback ``delay`` slots later.

    Every fifth slot's feedback is lost.  ``pending`` carries feedback still
    in flight between calls; ``log`` records each delivery in order as
    ``(t, loss or None)``.  ``flush`` delivers whatever is left at the end.
    """

    def deliver():
        slot, model = pending.pop(0)
        if slot % 5 == 4:
            policy.observe_lost(slot, model)
            log.append((slot, None))
        else:
            loss = 0.2 * model + 0.01 * (slot % 7)
            policy.observe(slot, model, loss)
            log.append((slot, loss))

    selections = []
    for t in slots:
        model = policy.select(t)
        selections.append(model)
        pending.append((t, model))
        while pending and pending[0][0] <= t - delay:
            deliver()
    while flush and pending:
        deliver()
    return selections


class _Pickled:
    """Pickles as an instance of ``cls`` carrying ``state`` verbatim."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return (object.__new__, (self.cls,), self.state)


def every_block_layout(policy, log):
    """``policy`` as the one-record-per-block layout pickled it.

    That layout kept a record, with its own sampling distribution, for every
    opened block, closed or not, and pickled the schedule with its memoized
    slot table.
    """
    schedule = policy.schedule
    tallies = {}
    for t, loss in log:
        tally = tallies.setdefault(schedule.block_of_slot(t), [0.0, 0, 0])
        if loss is None:
            tally[2] += 1
        else:
            tally[0] += loss
            tally[1] += 1
    records = {}
    for block, probabilities in enumerate(policy.probability_history):
        loss_sum, observed, lost = tallies.get(block, [0.0, 0, 0])
        length = int(schedule.lengths[block])
        records[block] = _Pickled(_BlockRecord, {
            "model": policy._models[block],
            "probabilities": probabilities,
            "length": length,
            "loss_sum": loss_sum,
            "observed": observed,
            "lost": lost,
            "closed": observed + lost == length,
        })
    table = np.repeat(np.arange(schedule.num_blocks), schedule.lengths)
    state = policy.__getstate__()
    for key in ("_models", "_probabilities", "_open"):
        del state[key]
    state["_blocks"] = records
    state["_schedule"] = _Pickled(
        BlockSchedule, dict(vars(schedule), _slot_to_block=table)
    )
    return _Pickled(OnlineModelSelection, state)


def pickled_objects(obj) -> int:
    """Objects a pickle of ``obj`` builds (class instances and reductions)."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return sum(
        op.name in ("BUILD", "REDUCE", "NEWOBJ")
        for op, _, _ in pickletools.genops(blob)
    )


class TestPickledState:
    @pytest.mark.parametrize("layout", ["current", "every-block"])
    @pytest.mark.parametrize("delay", [0, 12])
    def test_restored_policy_continues_bit_identically(self, layout, delay):
        horizon, cut = 150, 70
        live = OnlineModelSelection(4, horizon, 2.0, np.random.default_rng(21))
        pending, log = [], []
        drive_delayed(live, range(cut), delay, pending, log)
        frozen = live if layout == "current" else every_block_layout(live, log)
        restored = pickle.loads(pickle.dumps(frozen))

        assert isinstance(restored, OnlineModelSelection)
        assert restored.schedule == live.schedule
        # Delayed feedback leaves several blocks open at the cut.
        assert restored.pending_blocks == live.pending_blocks
        assert live.pending_blocks == (1 if delay == 0 else 3)
        np.testing.assert_array_equal(restored.selection_counts, live.selection_counts)
        history = live.probability_history
        assert len(restored.probability_history) == len(history)
        for got, want in zip(restored.probability_history, history):
            np.testing.assert_array_equal(got, want)

        tails = [
            drive_delayed(p, range(cut, horizon), delay, list(pending), [], flush=True)
            for p in (live, restored)
        ]
        assert tails[0] == tails[1]
        np.testing.assert_array_equal(
            restored.cumulative_estimates(), live.cumulative_estimates()
        )
        np.testing.assert_array_equal(restored.selection_counts, live.selection_counts)
        assert restored.pending_blocks == live.pending_blocks == 0
        for got, want in zip(restored.probability_history, live.probability_history):
            np.testing.assert_array_equal(got, want)

    def test_checkpoint_objects_do_not_grow_with_the_run(self):
        # Closed blocks live in arrays sized at construction, so a kernel
        # checkpoint late in the run builds as many objects as an early one.
        horizon = 256
        spec = RunSpec(
            scenario=ScenarioConfig(
                dataset="synthetic", num_edges=4, horizon=horizon, n_test=300, seed=0
            ),
            seed=0,
        )
        sim = Simulator.from_spec(spec.build_scenario(), spec)
        arrivals, kernels, _ = sim.build_kernels()
        objects = {}
        for t in range(horizon - 8):
            for kernel, process in zip(kernels, arrivals):
                kernel.step(t, process.sample(t))
            if t + 1 in (8, horizon - 8):
                # One open block per edge at both cuts (label_delay=0), so
                # open records cannot account for a difference.
                assert [k.policy.pending_blocks for k in kernels] == [1] * 4
                objects[t + 1] = pickled_objects([k.state_dict() for k in kernels])
        assert objects[8] == objects[horizon - 8]

    def test_feedback_errors_on_closed_blocks(self):
        rng = np.random.default_rng(4)
        policy = OnlineModelSelection(3, horizon=40, switch_cost=1.0, rng=rng)
        model = policy.select(0)
        policy.observe(0, model, 1.0)  # the first block spans one slot
        assert policy.pending_blocks == 0
        with pytest.raises(ValueError, match="hosts"):
            policy.observe(0, (model + 1) % 3, 1.0)
        with pytest.raises(ValueError, match="hosts"):
            policy.observe_lost(0, (model + 1) % 3)
        with pytest.raises(RuntimeError, match="already received"):
            policy.observe_lost(0, model)
        with pytest.raises(RuntimeError, match="already has slot feedback"):
            policy.observe_block(0, [1.0])
        with pytest.raises(RuntimeError, match="before it was opened"):
            policy.observe_block(1, [1.0])
        assert policy.pending_block(0) is None
        assert policy.pending_block(1) == 1
