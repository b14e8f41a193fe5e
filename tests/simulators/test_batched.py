"""Batched-shot simulation: the batched/looped determinism contract.

The sampling engines' ``method="batched"`` path evolves all shots of a
``max_batch`` tile along a NumPy batch axis; ``method="loop"`` re-walks the
circuit per shot.  Both consume identical per-trajectory Philox substreams
keyed by ``(seed, trajectory index)``, so counts must be **bit-identical**
across methods and across every ``max_batch`` tiling for a fixed seed —
that invariance is what lets the runtime treat the knobs as pure
throughput.  These tests pin the contract (hypothesis properties across
noisy backends and tilings), the convergence of the batched path against
the density-matrix engine's exact distribution, the loop fallback for
duck-typed noise models, the vectorised substream derivation against numpy
itself, and the batched path's compaction to the qubits a circuit touches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.devices.backend import TrajectoryDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import SimulationError
from repro.noise.channels import amplitude_damping, depolarizing
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.noise.trajectories import TrajectorySimulator
from repro.simulators import _batched
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.statevector import StatevectorSimulator

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


def noisy_model():
    return (
        NoiseModel("unit-noise")
        .add_all_qubit_gate_error(["h", "x"], depolarizing(0.1))
        .add_all_qubit_gate_error(["cx"], depolarizing(0.05))
        .add_all_qubit_gate_error(["x"], amplitude_damping(0.2))
        .add_readout_error(ReadoutError(0.08, 0.04))
    )


def stochastic_circuit():
    """Gates, noise, mid-circuit measurement, conditional and reset."""
    qc = QuantumCircuit(3, 4)
    qc.h(0)
    qc.cx(0, 1)
    qc.x(2)
    qc.measure(0, 0)
    qc.x(1, condition=(0, 1))
    qc.reset(2)
    qc.cx(1, 2)
    qc.measure(1, 1)
    qc.measure(2, 2)
    qc.measure(0, 3)
    return qc


def instrumented_bell():
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    return injector.circuit


class DuckTypedNoise:
    """A noise interface that is *not* a NoiseModel (stateful in principle)."""

    name = "duck"

    def __init__(self):
        self._inner = noisy_model()

    def channels_for(self, instruction):
        return self._inner.channels_for(instruction)

    def readout_confusion(self, qubit):
        return self._inner.readout_confusion(qubit)


class TestBatchedEqualsLooped:
    """The acceptance-criterion property: bit-identical at every tiling."""

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=96))
    @settings(max_examples=15, deadline=None)
    def test_trajectory_noisy(self, seed, shots):
        circuit = stochastic_circuit()
        model = noisy_model()
        loop = TrajectorySimulator(model, method="loop").run(
            circuit, shots=shots, seed=seed
        )
        assert loop.metadata["method"] == "loop"
        for max_batch in (1, 7, shots):
            batched = TrajectorySimulator(
                model, method="batched", max_batch=max_batch
            ).run(circuit, shots=shots, seed=seed)
            assert batched.metadata["method"] == "batched"
            assert dict(batched.counts) == dict(loop.counts), max_batch

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=96))
    @settings(max_examples=10, deadline=None)
    def test_trajectory_ideal(self, seed, shots):
        circuit = stochastic_circuit()
        loop = TrajectorySimulator(method="loop").run(
            circuit, shots=shots, seed=seed
        )
        for max_batch in (1, 7, shots):
            batched = TrajectorySimulator(method="batched", max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert dict(batched.counts) == dict(loop.counts), max_batch

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=96))
    @settings(max_examples=10, deadline=None)
    def test_statevector_fallback(self, seed, shots):
        circuit = stochastic_circuit()
        loop = StatevectorSimulator(max_branches=1, method="loop").run(
            circuit, shots=shots, seed=seed
        )
        assert loop.metadata["method"] == "per-shot"
        assert loop.metadata["per_shot_method"] == "loop"
        for max_batch in (1, 7, shots):
            batched = StatevectorSimulator(
                max_branches=1, method="batched", max_batch=max_batch
            ).run(circuit, shots=shots, seed=seed)
            assert batched.metadata["per_shot_method"] == "batched"
            assert dict(batched.counts) == dict(loop.counts), max_batch

    @given(seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_device_backend_methods_agree(self, seed):
        """The provider-level knob: trajectory device backends too."""
        circuit = instrumented_bell()
        device = ibmqx4()
        reference = None
        for max_batch, method in ((None, "loop"), (1, "batched"),
                                  (7, "batched"), (64, "auto")):
            backend = TrajectoryDeviceBackend(
                device, noise_scale=0.25, method=method,
                max_batch=max_batch or 64,
            )
            counts = dict(backend.run(circuit, shots=64, seed=seed).counts)
            if reference is None:
                reference = counts
            assert counts == reference, (method, max_batch)

    def test_tiling_never_changes_counts_at_scale(self):
        """One non-hypothesis anchor at realistic shot counts."""
        circuit = stochastic_circuit()
        model = noisy_model()
        reference = TrajectorySimulator(model, method="batched", max_batch=4096).run(
            circuit, shots=1000, seed=2020
        )
        for max_batch in (13, 250, 999):
            tiled = TrajectorySimulator(
                model, method="batched", max_batch=max_batch
            ).run(circuit, shots=1000, seed=2020)
            assert dict(tiled.counts) == dict(reference.counts)


class TestBatchedConvergence:
    def test_converges_to_density_matrix_distribution(self):
        """Batched trajectories converge to the exact noisy distribution."""
        circuit = instrumented_bell()
        model = noisy_model()
        exact = DensityMatrixSimulator(noise_model=model).run(circuit, shots=1)
        shots = 8000
        sampled = TrajectorySimulator(model, method="batched").run(
            circuit, shots=shots, seed=7
        )
        assert sampled.counts.shots == shots
        for key, probability in exact.probabilities.items():
            assert abs(sampled.counts.get(key, 0) / shots - probability) < 0.04

    def test_ideal_batched_matches_statevector(self):
        circuit = library.ghz_state(3)
        circuit.measure_all()
        exact = StatevectorSimulator().exact_probabilities(circuit)
        sampled = TrajectorySimulator(method="batched").run(
            circuit, shots=6000, seed=3
        )
        for key, probability in exact.items():
            assert abs(sampled.counts.get(key, 0) / 6000 - probability) < 0.04


class TestLoopFallback:
    def test_duck_typed_noise_takes_loop_path(self):
        result = TrajectorySimulator(DuckTypedNoise()).run(
            stochastic_circuit(), shots=16, seed=1
        )
        assert result.metadata["method"] == "loop"

    def test_duck_typed_noise_rejects_batched(self):
        simulator = TrajectorySimulator(DuckTypedNoise(), method="batched")
        with pytest.raises(SimulationError, match="method='loop'"):
            simulator.run(stochastic_circuit(), shots=4, seed=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError, match="unknown method"):
            TrajectorySimulator(method="turbo")
        with pytest.raises(SimulationError, match="unknown method"):
            StatevectorSimulator(method="turbo")

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(SimulationError, match="max_batch"):
            TrajectorySimulator(max_batch=0)

    def test_device_backend_reports_vectorized(self):
        device = ibmqx4()
        assert TrajectoryDeviceBackend(device).vectorized_shots
        assert TrajectoryDeviceBackend(device).cost_tag == "batched"
        looped = TrajectoryDeviceBackend(device, method="loop")
        assert not looped.vectorized_shots
        assert looped.cost_tag == "loop"


class TestSubstreamContract:
    def test_substreams_depend_only_on_seed_and_index(self):
        first = _batched.spawn_substreams(11, 8)
        second = _batched.spawn_substreams(11, 8)
        for a, b in zip(first, second):
            assert (
                _batched.substream_generator(a).random(4).tolist()
                == _batched.substream_generator(b).random(4).tolist()
            )

    def test_prefix_stability_across_shot_counts(self):
        """Trajectory t's substream is the same whether 8 or 64 shots run."""
        short = _batched.spawn_substreams(5, 8)
        long = _batched.spawn_substreams(5, 64)
        for a, b in zip(short, long):
            assert (
                _batched.substream_generator(a).random(2).tolist()
                == _batched.substream_generator(b).random(2).tolist()
            )

    def test_zero_shots(self):
        result = TrajectorySimulator(noisy_model()).run(
            stochastic_circuit(), shots=0, seed=1
        )
        assert dict(result.counts) == {}
        assert result.shots == 0

    def test_no_clbits_counts_empty_key(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        result = TrajectorySimulator().run(qc, shots=5, seed=1)
        assert dict(result.counts) == {"": 5}


ROOT_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127 + 3, [1, 2 ** 40], None]


class TestVectorisedSubstreams:
    """The batched path's keys and uniforms are numpy's, bit for bit."""

    @pytest.mark.parametrize("seed", ROOT_SEEDS, ids=repr)
    @pytest.mark.parametrize("draws", [1, 4, 5, 25])
    def test_uniforms_equal_numpy_generators(self, seed, draws):
        root = np.random.SeedSequence(seed)  # None: fresh OS entropy
        children = _batched.spawn_substreams(root.entropy, 11)
        expected = np.array(
            [_batched.substream_generator(c).random(draws) for c in children]
        )
        whole = _batched.substream_uniforms(root.entropy, 0, 11, draws)
        assert whole.dtype == np.float64
        assert np.array_equal(whole, expected)
        tile = _batched.substream_uniforms(root.entropy, 6, 5, draws)
        assert np.array_equal(tile, expected[6:])

    @pytest.mark.parametrize("seed", ROOT_SEEDS, ids=repr)
    def test_keys_equal_numpy_philox_keys(self, seed):
        root = np.random.SeedSequence(seed)
        children = root.spawn(6)
        key0, key1 = _batched.substream_keys(root.entropy, np.arange(6))
        for row, child in enumerate(children):
            expected = np.random.Philox(child).state["state"]["key"]
            assert [int(key0[row]), int(key1[row])] == expected.tolist()

    @pytest.mark.parametrize("seed", [7, 2 ** 64 + 5, [1, 2 ** 40]], ids=repr)
    def test_spawn_indices_past_32_bits(self, seed):
        """numpy encodes an index >= 2**32 as two spawn-key words."""
        root = np.random.SeedSequence(seed)
        indices = [2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 40 + 9, 2 ** 64 - 1]
        key0, key1 = _batched.substream_keys(
            root.entropy, np.array(indices, dtype=np.uint64)
        )
        for row, index in enumerate(indices):
            child = np.random.SeedSequence(root.entropy, spawn_key=(index,))
            expected = child.generate_state(2, np.uint64)
            assert (key0[row], key1[row]) == (expected[0], expected[1]), index
        start = 2 ** 32 - 2
        uniforms = _batched.substream_uniforms(root.entropy, start, 4, 3)
        for row in range(4):
            child = np.random.SeedSequence(root.entropy, spawn_key=(start + row,))
            expected = _batched.substream_generator(child).random(3)
            assert np.array_equal(uniforms[row], expected)


def compaction_model():
    """Noise whose channels and readout differ per physical qubit."""
    return (
        NoiseModel("per-qubit")
        .add_all_qubit_gate_error(["h", "x"], depolarizing(0.1))
        .add_all_qubit_gate_error(["cx"], depolarizing(0.05))
        .add_gate_error("x", [3], amplitude_damping(0.3))
        .add_readout_error(ReadoutError(0.08, 0.04))
        .add_readout_error(ReadoutError(0.2, 0.1), qubit=3)
    )


def _gappy_circuit():
    qc = QuantumCircuit(6, 3)
    qc.h(1)
    qc.cx(1, 4)
    qc.x(3)
    qc.measure(1, 0)
    qc.measure(4, 1)
    qc.measure(3, 2)
    return qc


def _measure_only_circuit():
    qc = QuantumCircuit(5, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.measure(3, 1)  # qubit 3 is touched by nothing but this measure
    return qc


def _reset_idle_circuit():
    qc = QuantumCircuit(5, 2)
    qc.h(0)
    qc.reset(2)
    qc.measure(0, 0)
    qc.measure(2, 1)
    return qc


def _conditional_circuit():
    qc = QuantumCircuit(6, 3)
    qc.h(4)
    qc.measure(4, 0)
    qc.x(1, condition=(0, 1))
    qc.cx(1, 3, condition=(0, 1))
    qc.measure(1, 1)
    qc.measure(3, 2)
    return qc


def _empty_circuit():
    return QuantumCircuit(4, 2)


COMPACTION_CIRCUITS = {
    "idle-between-active": _gappy_circuit,
    "measure-only-qubit": _measure_only_circuit,
    "reset-on-idle-qubit": _reset_idle_circuit,
    "conditioned-gate": _conditional_circuit,
    "zero-instructions": _empty_circuit,
}


class TestCompaction:
    """The batched path simulates only touched qubits; counts never change."""

    def test_program_addresses_touched_qubits_in_order(self):
        steps, width = _batched.build_program(_gappy_circuit(), compaction_model())
        assert width == 3  # physical qubits 1, 3, 4 -> axes 0, 1, 2
        touched = {qubit for _, qubits, _, _ in steps for qubit in qubits}
        assert touched == {0, 1, 2}
        full, full_width = _batched.build_program(
            _gappy_circuit(), compaction_model(), compact=False
        )
        assert full_width == 6
        axis = {1: 0, 3: 1, 4: 2}
        for (kind, qubits, _, _), (full_kind, physical, _, _) in zip(steps, full):
            assert kind == full_kind
            assert qubits == tuple(axis[q] for q in physical)

    def test_noise_queried_with_physical_qubits(self):
        """Qubit 3's own readout and damping reach compact axis 1."""
        steps, _ = _batched.build_program(_gappy_circuit(), compaction_model())
        kraus_on_x = [
            payload for kind, qubits, payload, _ in steps
            if kind == "kraus" and qubits == (1,) and len(payload) == 2
        ]
        assert kraus_on_x, "qubit 3's amplitude damping was not kept"
        confusion = {
            qubits: payload[1] for kind, qubits, payload, _ in steps
            if kind == "measure"
        }
        assert np.array_equal(
            confusion[(1,)], compaction_model().readout_confusion(3)
        )

    def test_zero_instruction_program_is_empty(self):
        assert _batched.build_program(_empty_circuit(), None) == ([], 0)

    @pytest.mark.parametrize("name", sorted(COMPACTION_CIRCUITS))
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_batched_equals_loop(self, name, noisy):
        circuit = COMPACTION_CIRCUITS[name]()
        model = compaction_model() if noisy else None
        for seed in (3, 2 ** 31 - 1):
            loop = TrajectorySimulator(model, method="loop").run(
                circuit, shots=200, seed=seed
            )
            for max_batch in (1, 7, 200):
                batched = TrajectorySimulator(
                    model, method="batched", max_batch=max_batch
                ).run(circuit, shots=200, seed=seed)
                assert dict(batched.counts) == dict(loop.counts), (seed, max_batch)

    # A zero-instruction circuit has one branch, so it never falls back.
    @pytest.mark.parametrize(
        "name", sorted(set(COMPACTION_CIRCUITS) - {"zero-instructions"})
    )
    def test_statevector_fallback_equals_loop(self, name):
        circuit = COMPACTION_CIRCUITS[name]()
        loop = StatevectorSimulator(max_branches=1, method="loop").run(
            circuit, shots=150, seed=9
        )
        batched = StatevectorSimulator(max_branches=1, method="batched").run(
            circuit, shots=150, seed=9
        )
        assert batched.metadata["per_shot_method"] == "batched"
        assert dict(batched.counts) == dict(loop.counts)

    def test_zero_instruction_counts(self):
        result = TrajectorySimulator(compaction_model()).run(
            _empty_circuit(), shots=9, seed=1
        )
        assert dict(result.counts) == {"00": 9}

    def test_initial_state_runs_full_width(self, monkeypatch):
        """A given initial state may populate any qubit: no compaction."""
        widths = []
        run_batched = _batched.run_batched

        def spy(steps, num_qubits, *args, **kwargs):
            widths.append(num_qubits)
            return run_batched(steps, num_qubits, *args, **kwargs)

        monkeypatch.setattr(_batched, "run_batched", spy)
        qc = QuantumCircuit(3, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.measure(2, 1)
        initial = np.zeros(8, dtype=complex)
        initial[0b001], initial[0b100] = 0.6, 0.8
        model = compaction_model()
        batched = TrajectorySimulator(model, method="batched").run(
            qc, shots=300, seed=5, initial_state=initial
        )
        loop = TrajectorySimulator(model, method="loop").run(
            qc, shots=300, seed=5, initial_state=initial
        )
        assert widths == [3]
        assert dict(batched.counts) == dict(loop.counts)
        # Qubit 2 starts in |1> on the 0.6 branch: compaction would lose it.
        assert sum(n for key, n in batched.counts.items() if key[1] == "1") > 0
        widths.clear()
        TrajectorySimulator(model, method="batched").run(qc, shots=10, seed=5)
        assert widths == [2]
