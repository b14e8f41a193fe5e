"""Batch-axis trajectory execution shared by the sampling engines.

This module is the machinery behind ``method="batched"`` on the
:class:`~repro.noise.trajectories.TrajectorySimulator` and the statevector
engine's post-``max_branches`` per-shot fallback: instead of re-walking the
circuit once per shot in Python, all shots of a (sub-)batch evolve together
as one batch-last ``(2, ..., 2, B)`` state tensor through the batched
kernels in :mod:`repro.simulators._kernels`.  Classically conditioned instructions are
handled by masking the rows whose classical bits do not match; memory is
bounded by tiling the shots into ``max_batch``-sized sub-batches.

Determinism contract (batch-width invariant by construction)
------------------------------------------------------------
Every trajectory draws from its **own counter-based substream**: shot ``t``
of a run seeded ``s`` uses ``Philox(SeedSequence(s).spawn(shots)[t])``, and
consumes one uniform per stochastic decision it actually executes (Kraus
branch choice, measurement outcome, readout flip, reset), in program order.
The retained loop path (``method="loop"``, also the fallback for
duck-typed noise models) builds each child ``SeedSequence`` and
``Generator(Philox)`` with numpy and draws sequentially.  The batched path
derives the same uniforms for a whole tile in one vectorised pass
(:func:`substream_uniforms`): the ``SeedSequence`` hash-mix over the
tile's spawn-index column, then Philox4x64-10 over every row's counters —
bit-for-bit numpy's values, keyed by ``(root entropy, t)`` only, so they
never depend on the tiling.  It then advances a per-row cursor.  Both paths
share the per-trajectory decision arithmetic (the batched kernels are
row-wise bitwise deterministic, and the loop path runs them at batch
width 1), so batched and looped counts are bit-identical for a fixed seed
at **every** ``max_batch`` tiling — which is what lets the runtime's
chunk-seed plan, dedup and cost model treat ``method`` and ``max_batch``
as pure throughput knobs.

Without an ``initial_state`` the batched path simulates only the qubits
some instruction touches (gate operand, Kraus target, measure or reset),
in their original order.  An untouched qubit stays exactly ``|0>``, and
each kernel's per-trajectory sums merely drop the ``+0.0`` terms such a
qubit would add, so the counts are the same as at full width.  The loop
path stays full-width.

The loop fallback is taken when the noise model is duck-typed (anything
that is not a :class:`repro.noise.model.NoiseModel`): its ``channels_for``
may be stateful, so it must be queried per shot exactly as the historical
engine did.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.gates import Gate, x_matrix
from repro.exceptions import SimulationError
from repro.simulators import _kernels

#: Selectable execution methods for the sampling engines.
METHODS = ("auto", "batched", "loop")

#: Default shot-tiling bound: big enough to amortise kernel dispatch,
#: small enough that ``B * 2^n`` (plus one Kraus branch copy per operator)
#: stays cache- and memory-friendly for the paper's circuit sizes.  ``n``
#: counts the qubits the circuit touches, not the device width.
DEFAULT_MAX_BATCH = 1024

_GATE = "gate"
_KRAUS = "kraus"
_MEASURE = "measure"
_RESET = "reset"


def supports_batching(noise_model) -> bool:
    """Return ``True`` when ``noise_model`` is safe to query once per run.

    The batched path asks the model for each instruction's channels a
    single time and replays the answer across all shots, so it requires
    the repo's pure :class:`~repro.noise.model.NoiseModel` (or no noise at
    all).  Arbitrary duck-typed models may be stateful and take the loop
    fallback instead.
    """
    if noise_model is None:
        return True
    from repro.noise.model import NoiseModel

    return isinstance(noise_model, NoiseModel)


def resolve_method(method: str, noise_model) -> str:
    """Map a ``method`` argument to the concrete path (``batched``/``loop``)."""
    if method not in METHODS:
        raise SimulationError(
            f"unknown method {method!r}; choose from {list(METHODS)}"
        )
    if method == "loop":
        return "loop"
    if supports_batching(noise_model):
        return "batched"
    if method == "batched":
        raise SimulationError(
            "method='batched' requires a repro NoiseModel (duck-typed noise "
            "models are queried per shot and must use method='loop')"
        )
    return "loop"


def validate_max_batch(max_batch: int) -> int:
    if int(max_batch) < 1:
        raise SimulationError(f"max_batch must be positive, got {max_batch}")
    return int(max_batch)


def spawn_substreams(seed: Optional[int], shots: int) -> List[np.random.SeedSequence]:
    """Return one child :class:`~numpy.random.SeedSequence` per trajectory.

    Substream ``t`` depends only on ``(seed, t)`` — never on how shots are
    tiled into batches — which is the root of the batch-width-invariance
    contract.  ``seed=None`` draws fresh OS entropy for the root.
    """
    root = np.random.SeedSequence(seed)
    return root.spawn(shots) if shots > 0 else []


def substream_generator(child: np.random.SeedSequence) -> np.random.Generator:
    """Return the counter-based generator of one trajectory substream."""
    return np.random.Generator(np.random.Philox(child))


# ----------------------------------------------------------------------
# Vectorised substream derivation (batched path)
# ----------------------------------------------------------------------
#
# The batched path needs, per tile, the first ``d`` uniforms of every
# trajectory's substream.  Building a SeedSequence and a Philox generator
# per row costs ~22 us in Python, so the two numpy algorithms are
# restated here over a ``(B,)`` row axis.  The constants and the order of
# operations follow numpy's ``bit_generator.pyx`` (SeedSequence) and
# Random123's ``philox.h``; ``tests/simulators/test_batched.py`` checks
# the output against numpy itself.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _entropy_words(entropy) -> List[int]:
    """Split ``SeedSequence.entropy`` into numpy's little-endian uint32 words."""
    if isinstance(entropy, np.ndarray) and entropy.dtype == np.uint32:
        return [int(word) for word in entropy]
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for item in entropy for word in _entropy_words(item)]


class _HashMix:
    """SeedSequence's ``hashmix`` with its running multiplier.

    ``generate_state`` hashes the pool with the same steps under its own
    constants (``_INIT_B``/``_MULT_B``).
    """

    def __init__(self, init: int = _INIT_A, mult: int = _MULT_A) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def substream_keys(entropy, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return the Philox keys of spawned children ``indices`` of a root.

    Row ``r`` equals ``Philox(SeedSequence(entropy, spawn_key=(t,)))``'s
    key for ``t = indices[r]``, i.e. the key of
    ``SeedSequence(entropy).spawn(n)[t]``, as two ``(B,)`` uint64 words.
    The root's entropy words are the same for every row, so they are mixed
    into the pool once; only the spawn index varies by row.  numpy encodes
    an index of ``2**32`` or more as two words, and such rows take one
    more mixing round.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    words = _entropy_words(entropy)
    words += [0] * (_POOL_SIZE - len(words))  # numpy pads when spawn-keyed
    hashmix = _HashMix()
    pool = [hashmix(np.array([word], dtype=np.uint32)) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    low = (indices & np.uint64(_MASK32)).astype(np.uint32)
    high = (indices >> np.uint64(32)).astype(np.uint32)
    tail = [np.array([word], dtype=np.uint32) for word in words[_POOL_SIZE:]]
    for word in tail + [low]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    if high.any():
        two_words = high != 0
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(two_words, _mix(pool[dst], hashmix(high)), pool[dst])
    # generate_state(2, np.uint64): four uint32 words, paired little-endian.
    output_hash = _HashMix(_INIT_B, _MULT_B)
    state = [output_hash(word).astype(np.uint64) for word in pool]
    shift = np.uint64(32)
    return state[0] | (state[1] << shift), state[2] | (state[3] << shift)


def _mulhilo(multiplier: int, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return the high and low 64-bit words of ``multiplier * value``."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = np.uint64(multiplier & _MASK32), np.uint64(multiplier >> 32)
    v_lo, v_hi = value & mask, value >> shift
    cross = v_hi * m_lo + ((v_lo * m_lo) >> shift)
    carry = v_lo * m_hi + (cross & mask)
    high = v_hi * m_hi + (cross >> shift) + (carry >> shift)
    return high, value * np.uint64(multiplier)


def substream_uniforms(entropy, start: int, count: int, draws: int) -> np.ndarray:
    """Return trajectories ``start..start+count-1``'s first ``draws`` uniforms.

    Row ``r`` equals ``substream_generator(SeedSequence(entropy).spawn(n)
    [start + r]).random(draws)`` bit for bit: Philox4x64-10 blocks from
    counter 1 under each row's key, each 64-bit output mapped to
    ``(raw >> 11) * 2**-53``.  The result depends only on the entropy and
    the trajectory indices, never on ``start``/``count`` tiling.
    """
    blocks = -(-draws // 4)
    indices = np.arange(start, start + count, dtype=np.uint64)
    key0, key1 = (key[:, np.newaxis] for key in substream_keys(entropy, indices))
    ctr0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    ctr1 = ctr2 = ctr3 = np.zeros((count, blocks), dtype=np.uint64)
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            key0, key1 = key0 + _PHILOX_W0, key1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, ctr0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, ctr2)
        ctr0, ctr1, ctr2, ctr3 = hi1 ^ ctr1 ^ key0, lo1, hi0 ^ ctr3 ^ key1, lo0
    raw = np.stack([ctr0, ctr1, ctr2, ctr3], axis=-1).reshape(count, 4 * blocks)
    return (raw[:, :draws] >> np.uint64(11)) * (1.0 / 9007199254740992.0)


# ----------------------------------------------------------------------
# Program construction (batched path)
# ----------------------------------------------------------------------


def build_program(circuit, noise_model, compact: bool = True) -> Tuple[List[tuple], int]:
    """Compile ``circuit.data`` to ``(steps, width)`` for the batched walker.

    Each step is ``(kind, qubits, payload, condition)``; the noise model is
    queried exactly once per instruction (it must therefore pass
    :func:`supports_batching`), always with the circuit's own qubit
    indices.  With ``compact`` the steps then address only the qubits some
    step touches, renumbered ``0..width-1`` in their original order;
    otherwise ``width`` is the circuit's qubit count.  Raises on non-gate
    unitaries, exactly as the per-shot walker would.
    """
    steps: List[tuple] = []
    for inst in circuit.data:
        if inst.name == "barrier":
            continue
        condition = inst.condition
        if inst.name == "measure":
            qubit, clbit = inst.qubits[0], inst.clbits[0]
            confusion = (
                noise_model.readout_confusion(qubit)
                if noise_model is not None
                else None
            )
            steps.append((_MEASURE, (qubit,), (clbit, confusion), condition))
        elif inst.name == "reset":
            steps.append((_RESET, (inst.qubits[0],), None, condition))
        else:
            op = inst.operation
            if not isinstance(op, Gate):
                raise SimulationError(f"cannot apply non-gate {op.name!r}")
            steps.append((_GATE, tuple(inst.qubits), op.matrix, condition))
            if noise_model is not None:
                for kraus, targets in noise_model.channels_for(inst):
                    steps.append((_KRAUS, tuple(targets), tuple(kraus), condition))
    if not compact:
        return steps, circuit.num_qubits
    active = sorted({qubit for step in steps for qubit in step[1]})
    axis = {qubit: index for index, qubit in enumerate(active)}
    steps = [
        (kind, tuple(axis[qubit] for qubit in qubits), payload, condition)
        for kind, qubits, payload, condition in steps
    ]
    return steps, len(active)


def _max_draws(steps: List[tuple]) -> int:
    """Upper bound on the uniforms any one trajectory consumes."""
    draws = 0
    for kind, _, payload, _ in steps:
        if kind == _MEASURE:
            draws += 1 + (1 if payload[1] is not None else 0)
        elif kind in (_RESET, _KRAUS):
            draws += 1
    return draws


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------


def _apply_rows(states, rows, new_rows) -> np.ndarray:
    """Write the processed subset back (whole-batch writes skip the copy).

    The batch axis is the states' **last** axis (see the kernels module).
    """
    if rows.shape[0] == states.shape[-1]:
        return new_rows
    states[..., rows] = new_rows
    return states


def _sample_kraus_rows(sub, operators, targets, uniforms):
    """Vectorised per-trajectory Kraus unravelling for one channel.

    All operator weights are computed batched (every branch tensor is
    live until selection — peak memory is ``m + 2`` state tensors), then
    each trajectory takes its sampled branch (shared
    :func:`_kernels.kraus_select` decision) and renormalises by that
    branch's Born weight.  Rows are assembled per-branch so no
    additional ``(m, B, ...)`` stack is materialised on top.
    """
    branches = [
        _kernels.batched_apply_matrix(sub, k_op, targets) for k_op in operators
    ]
    weights = np.stack([_kernels.batched_norm_sq(branch) for branch in branches])
    choice = _kernels.kraus_select(weights, uniforms)
    out = np.empty_like(sub)
    for index, branch in enumerate(branches):
        rows = np.nonzero(choice == index)[0]
        if rows.size:
            out[..., rows] = branch[..., rows] / np.sqrt(weights[index, rows])
    return out


def run_batched(
    steps: List[tuple],
    num_qubits: int,
    num_clbits: int,
    entropy,
    shots: int,
    initial_state: Optional[np.ndarray],
    max_batch: int = DEFAULT_MAX_BATCH,
) -> Dict[str, int]:
    """Simulate trajectories ``0..shots-1`` of root ``entropy`` in tiles."""
    counts: Dict[str, int] = {}
    draws = _max_draws(steps)
    for start in range(0, shots, max_batch):
        batch = min(max_batch, shots - start)
        if draws:
            uniforms = substream_uniforms(entropy, start, batch, draws)
        else:
            uniforms = np.empty((batch, 0))
        cursor = np.zeros(batch, dtype=np.intp)
        states = _kernels.batched_state_tensor(batch, num_qubits, initial_state)
        clbits = np.zeros((batch, num_clbits), dtype=np.uint8)
        all_rows = np.arange(batch)

        def take(rows):
            values = uniforms[rows, cursor[rows]]
            cursor[rows] += 1
            return values

        for kind, qubits, payload, condition in steps:
            if condition is None:
                rows = all_rows
            else:
                clbit, value = condition
                rows = np.nonzero(clbits[:, clbit] == value)[0]
                if rows.shape[0] == 0:
                    continue
            sub = states if rows is all_rows else states[..., rows]
            if kind == _GATE:
                states = _apply_rows(
                    states, rows, _kernels.batched_apply_matrix(sub, payload, qubits)
                )
            elif kind == _KRAUS:
                states = _apply_rows(
                    states, rows, _sample_kraus_rows(sub, payload, qubits, take(rows))
                )
            elif kind == _MEASURE:
                (qubit,), (clbit, confusion) = qubits, payload
                p_one = _kernels.batched_probability_of_one(sub, qubit)
                outcomes = (take(rows) < p_one).astype(np.uint8)
                collapsed, _ = _kernels.batched_collapse(sub, qubit, outcomes)
                states = _apply_rows(states, rows, collapsed)
                recorded = outcomes
                if confusion is not None:
                    flip_prob = np.where(
                        outcomes == 1, confusion[0][1], confusion[1][0]
                    )
                    flips = (take(rows) < flip_prob).astype(np.uint8)
                    recorded = outcomes ^ flips
                clbits[rows, clbit] = recorded
            elif kind == _RESET:
                (qubit,) = qubits
                p_one = _kernels.batched_probability_of_one(sub, qubit)
                outcomes = (take(rows) < p_one).astype(np.uint8)
                collapsed, _ = _kernels.batched_collapse(sub, qubit, outcomes)
                ones = np.nonzero(outcomes == 1)[0]
                if ones.shape[0]:
                    collapsed[..., ones] = _kernels.batched_apply_matrix(
                        collapsed[..., ones], x_matrix(), [qubit]
                    )
                states = _apply_rows(states, rows, collapsed)
        for key, value in _kernels.pack_counts(clbits).items():
            counts[key] = counts.get(key, 0) + value
    return counts


# ----------------------------------------------------------------------
# Retained loop path (batch width 1, identical substreams)
# ----------------------------------------------------------------------


def run_loop(
    circuit,
    noise_model,
    children: List[np.random.SeedSequence],
    initial_state: Optional[np.ndarray],
) -> Dict[str, int]:
    """Per-shot walker consuming the same substreams as the batched path.

    Kept as the reference implementation and the fallback for duck-typed
    noise models (queried per shot).  It runs the *batched* kernels at
    batch width 1 and shares the Kraus decision function, so its counts
    are bit-identical to :func:`run_batched` for a fixed seed.
    """
    from collections import Counter

    counts: Counter = Counter()
    for child in children:
        rng = substream_generator(child)
        counts[_loop_shot(circuit, noise_model, rng, initial_state)] += 1
    return dict(counts)


def _loop_shot(circuit, noise_model, rng, initial_state) -> str:
    state = _kernels.batched_state_tensor(1, circuit.num_qubits, initial_state)
    clbits = [0] * circuit.num_clbits
    for inst in circuit.data:
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            clbit, value = inst.condition
            if clbits[clbit] != value:
                continue
        if inst.name == "measure":
            state = _loop_measure(state, inst, clbits, noise_model, rng)
        elif inst.name == "reset":
            state = _loop_reset(state, inst, rng)
        else:
            op = inst.operation
            if not isinstance(op, Gate):
                raise SimulationError(f"cannot apply non-gate {op.name!r}")
            state = _kernels.batched_apply_matrix(state, op.matrix, inst.qubits)
            if noise_model is not None:
                for kraus, targets in noise_model.channels_for(inst):
                    state = _loop_sample_kraus(
                        state, tuple(kraus), tuple(targets), rng.random()
                    )
    return "".join(str(b) for b in clbits)


def _loop_sample_kraus(state, operators, targets, uniform):
    """Early-exiting scalar twin of :func:`_sample_kraus_rows`.

    Applies operators only until the sampled branch is found (usually the
    first, high-weight one), instead of materialising all ``m`` branches
    per shot.  Decision-equivalent to :func:`_kernels.kraus_select`
    bit-for-bit: the cumulative partial sums are the same float64
    sequence, the first branch whose cumulative weight exceeds the draw
    wins, and the round-off / zero-weight fallback (which does need every
    weight) picks the last branch with support.
    """
    cumulative = 0.0
    branches = []
    weights = []
    for k_op in operators:
        branch = _kernels.batched_apply_matrix(state, k_op, targets)
        weight = float(_kernels.batched_norm_sq(branch)[0])
        branches.append(branch)
        weights.append(weight)
        cumulative += weight
        if uniform < cumulative:
            if weight > _kernels.KRAUS_EPS:
                return branch / np.sqrt(weight)
            break  # selected a zero-weight branch: take the fallback
    for k_op in operators[len(branches):]:
        branch = _kernels.batched_apply_matrix(state, k_op, targets)
        branches.append(branch)
        weights.append(float(_kernels.batched_norm_sq(branch)[0]))
    for branch, weight in zip(reversed(branches), reversed(weights)):
        if weight > _kernels.KRAUS_EPS:
            return branch / np.sqrt(weight)
    raise SimulationError("Kraus sampling found no branch with support")


def _loop_measure(state, inst, clbits, noise_model, rng):
    qubit, clbit = inst.qubits[0], inst.clbits[0]
    p_one = _kernels.batched_probability_of_one(state, qubit)[0]
    outcome = 1 if rng.random() < p_one else 0
    state, _ = _kernels.batched_collapse(state, qubit, np.array([outcome], dtype=np.uint8))
    recorded = outcome
    if noise_model is not None:
        confusion = noise_model.readout_confusion(qubit)
        if confusion is not None:
            flip_prob = confusion[1 - outcome][outcome]
            if rng.random() < flip_prob:
                recorded = 1 - outcome
    clbits[clbit] = recorded
    return state


def _loop_reset(state, inst, rng):
    qubit = inst.qubits[0]
    p_one = _kernels.batched_probability_of_one(state, qubit)[0]
    outcome = 1 if rng.random() < p_one else 0
    state, _ = _kernels.batched_collapse(state, qubit, np.array([outcome], dtype=np.uint8))
    if outcome == 1:
        state = _kernels.batched_apply_matrix(state, x_matrix(), [qubit])
    return state


# ----------------------------------------------------------------------
# Engine entry point
# ----------------------------------------------------------------------


def sample_shots(
    circuit,
    noise_model,
    shots: int,
    seed: Optional[int],
    initial_state: Optional[np.ndarray],
    method: str = "auto",
    max_batch: int = DEFAULT_MAX_BATCH,
) -> Tuple[Dict[str, int], str]:
    """Sample ``shots`` trajectories; returns ``(counts, resolved method)``.

    The one entry point both sampling engines call: resolves ``method``
    and dispatches to the batched walker (compacted to the touched qubits
    unless ``initial_state`` is given, with substreams keyed by the root
    seed's entropy) or the loop walker (full width, one numpy generator
    per shot) — whose counts agree bit-for-bit wherever both apply.
    """
    resolved = resolve_method(method, noise_model)
    max_batch = validate_max_batch(max_batch)
    if resolved == "batched":
        steps, width = build_program(
            circuit, noise_model, compact=initial_state is None
        )
        counts = run_batched(
            steps,
            width,
            circuit.num_clbits,
            np.random.SeedSequence(seed).entropy,
            shots,
            initial_state,
            max_batch,
        )
    else:
        counts = run_loop(
            circuit, noise_model, spawn_substreams(seed, shots), initial_state
        )
    return counts, resolved
