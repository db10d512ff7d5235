"""The fleet engine: every replica fleet, sharded or serial, one simulator.

:class:`ShardedSimulator` runs a :class:`~repro.shard.spec.FleetSpec`
fleet partitioned over shards (:mod:`repro.shard.plan`), each shard a
fully independent world — its own :class:`~repro.network.simulator.
Simulator`, :class:`~repro.network.gossip.GossipNetwork` over the full
overlay graph, and replica/light-replica nodes for the members it owns.
Shards advance in lock-step *epochs*: all shards run to the same
deadline, then cross-shard inv/getdata/payload traffic — flattened to
length-prefixed frames (:mod:`repro.shard.frames`) — is exchanged at
the barrier and scheduled into its destination shard.  The control
plane (PoW winner sampling, the record queues, scheduled callbacks)
stays on the coordinator; crash state lives only on the nodes.

A serial fleet is ``spec.shards == 1``: one shard with no gateway and
no barriers, so the engine is a single event loop driving the replicas
on live objects, and it exposes the in-process views experiments and
tests read directly (``replicas``, ``light_replicas``, ``simulator``,
``network``, ``query_service``).

Determinism contract, in decreasing strength:

1. ``jobs`` is pure parallelism.  ``ShardedSimulator(spec, jobs=N)``
   is seed-for-seed **bit-identical** to ``jobs=1`` for the same spec —
   heads, chain bytes, ledger state, light tips, gossip counters, and
   per-replica counters all match, because workers run the exact code
   the serial path runs and the serial path round-trips every boundary
   frame through the same wire codec.  The ``jobs=1`` run is the
   *parity oracle* the test suite holds every parallel run against.
2. The shard *count* is part of the experiment configuration, like the
   topology: runs with different shard counts are each internally
   deterministic but not bit-identical to each other, because barrier
   batching quantizes cross-shard arrival times.

Worker processes are persistent and rebuild their shards from a small
picklable blueprint — no topology graphs or node objects ever cross the
process boundary.  Both executors speak one protocol: a batch of
``(op, shard, args)`` commands, each calling one :class:`ShardState`
method, costing one pipe round trip per worker the batch touches.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chain.block import Block, ChainRecord
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import MiningModel
from repro.chain.serialization import export_chain, import_chain
from repro.core.distributed import (
    LightReplicaNode,
    RecordCheck,
    ReplicaNode,
    _interleave,
)
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import Message, MessageKind
from repro.network.simulator import Simulator
from repro.shard.frames import (
    CrossShardFrame,
    FrameKind,
    decode_frames,
    encode_frames,
)
from repro.shard.plan import ShardPlan, build_plan, derive_shard_seeds
from repro.shard.spec import FleetSpec
from repro.store import ChainStore, HeaderStore
from repro.store.faultinject import STORE_FAULT_PARAMS, apply_store_fault
from repro.telemetry import Telemetry

__all__ = ["ShardGateway", "ShardState", "ShardedSimulator"]

#: Settle rounds before declaring the boundary traffic non-quiescent.
#: Dedup guarantees each content item crosses each link at most once,
#: so real runs drain in a handful of rounds; this is a loud backstop.
_MAX_SETTLE_ROUNDS = 100_000

#: Fleet seconds between epoch barriers of a multi-shard fleet.  A
#: one-shard fleet has no boundary traffic and runs barrier-free.
_BARRIER_INTERVAL = 0.25


class ShardGateway:
    """A shard's door to the rest of the fleet.

    Installed as :attr:`GossipNetwork.remote_gateway`; collects outbound
    boundary traffic as :class:`~repro.shard.frames.CrossShardFrame`
    records (drained at each barrier) and keeps the content this shard
    has announced across the boundary so returning ``getdata`` pulls can
    be served without re-shipping state.
    """

    __slots__ = ("index", "_owners", "outbox", "content", "_seq")

    def __init__(self, index: int, owners: Mapping[str, int]) -> None:
        self.index = index
        self._owners = owners
        self.outbox: List[CrossShardFrame] = []
        self.content: Dict[bytes, Message] = {}
        self._seq = itertools.count()

    def is_remote(self, name: str) -> bool:
        """True if ``name`` is a fleet member another shard owns."""
        owner = self._owners.get(name)
        return owner is not None and owner != self.index

    def owner_of(self, name: str) -> int:
        """The shard index owning ``name``."""
        return self._owners[name]

    def send_payload(
        self,
        src: str,
        dst: str,
        message: Message,
        arrival: float,
        reduce_for_delivery: bool = False,
    ) -> None:
        """Queue a payload frame (flood push or a served pull)."""
        self.outbox.append(
            CrossShardFrame(
                kind=FrameKind.PAYLOAD,
                src=src,
                dst=dst,
                message_kind=message.kind,
                origin=message.origin,
                dedup_key=message.dedup_key,
                arrival=arrival,
                seq=next(self._seq),
                wants_headers=reduce_for_delivery,
                payload=message.payload,
            )
        )

    def send_inv(self, src: str, dst: str, message: Message, arrival: float) -> None:
        """Queue an inventory frame; cache the content for the pull back."""
        self.content[message.dedup_key] = message
        self.outbox.append(
            CrossShardFrame(
                kind=FrameKind.INV,
                src=src,
                dst=dst,
                message_kind=message.kind,
                origin=message.origin,
                dedup_key=message.dedup_key,
                arrival=arrival,
                seq=next(self._seq),
            )
        )

    def send_getdata(
        self,
        src: str,
        dst: str,
        message_kind: MessageKind,
        origin: str,
        dedup_key: bytes,
        wants_headers: bool,
        arrival: float,
    ) -> None:
        """Queue the pull back to an announcing shard."""
        self.outbox.append(
            CrossShardFrame(
                kind=FrameKind.GETDATA,
                src=src,
                dst=dst,
                message_kind=message_kind,
                origin=origin,
                dedup_key=dedup_key,
                arrival=arrival,
                seq=next(self._seq),
                wants_headers=wants_headers,
            )
        )

    def drain(self) -> Dict[int, bytes]:
        """This epoch's boundary traffic, framed, grouped by destination shard."""
        if not self.outbox:
            return {}
        grouped: Dict[int, List[CrossShardFrame]] = {}
        for frame in self.outbox:
            grouped.setdefault(self._owners[frame.dst], []).append(frame)
        self.outbox = []
        return {dst: encode_frames(frames) for dst, frames in grouped.items()}


class _ChainDonor:
    """The minimal peer shape :meth:`ReplicaNode.resync_from` reads."""

    __slots__ = ("chain",)

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain


@dataclass(frozen=True)
class _Blueprint:
    """Everything a worker needs to rebuild its shards, picklably.

    Topology graphs and node objects never cross the process boundary:
    each worker re-derives them from the spec and the seeds, which is
    both cheap (topology build is the only real cost) and exact (the
    build is a pure function of the seed).
    """

    spec: FleetSpec
    full_names: Tuple[str, ...]
    assignments: Tuple[Tuple[str, ...], ...]
    topo_seed: int
    shard_seeds: Tuple[int, ...]
    difficulty: int
    confirmation_depth: int
    latency: LatencyModel
    record_check: Optional[RecordCheck]
    byzantine: FrozenSet[str]
    telemetry_enabled: bool


class ShardState:
    """One shard's complete world: simulator, overlay, replicas.

    Construction order is fixed — full replicas first (fleet order),
    then light replicas — and every shard builds the same overlay from
    the same seed, so a one-shard fleet is one plain event loop.
    """

    def __init__(self, blueprint: _Blueprint, index: int) -> None:
        spec = blueprint.spec
        self.index = index
        self.confirmation_depth = blueprint.confirmation_depth
        self.telemetry = Telemetry() if blueprint.telemetry_enabled else None
        self.simulator = Simulator(telemetry=self.telemetry)
        ring_order = _interleave(list(blueprint.full_names), spec.light_names())
        config = spec.network
        # Every shard builds the same full overlay graph from the same
        # seed; edges whose far end lives elsewhere route through the
        # gateway instead of the local event queue.
        topology = build_topology(
            ring_order,
            config.topology,
            degree=config.degree,
            rng=random.Random(blueprint.topo_seed),
        )
        self.network = GossipNetwork(
            self.simulator,
            topology,
            latency=blueprint.latency,
            rng=random.Random(blueprint.shard_seeds[index]),
            config=config,
            telemetry=self.telemetry,
        )
        plan = ShardPlan(assignments=blueprint.assignments)
        owners = {
            name: shard
            for shard in range(plan.shards)
            for name in plan.members(shard)
        }
        self.gateway = ShardGateway(index, owners)
        if plan.shards > 1:
            self.network.remote_gateway = self.gateway
        genesis = make_genesis(difficulty=blueprint.difficulty)
        store_dir = Path(spec.store_dir) if spec.store_dir is not None else None
        full_set = frozenset(blueprint.full_names)
        members = plan.members(index)
        self.replicas: Dict[str, ReplicaNode] = {}
        for name in (n for n in members if n in full_set):
            check = None if name in blueprint.byzantine else blueprint.record_check
            store = (
                ChainStore(
                    store_dir / name,
                    snapshot_interval=spec.store_snapshot_interval,
                )
                if store_dir is not None
                else None
            )
            replica = ReplicaNode(
                name,
                genesis,
                record_check=check,
                confirmation_depth=blueprint.confirmation_depth,
                store=store,
            )
            self.replicas[name] = replica
            self.network.attach(replica)
        self.light_replicas: Dict[str, LightReplicaNode] = {}
        for name in (n for n in members if n not in full_set):
            header_store = (
                HeaderStore(store_dir / name) if store_dir is not None else None
            )
            light = LightReplicaNode(name, genesis, store=header_store)
            light.set_servers(list(self.replicas.values()))
            self.light_replicas[name] = light
            self.network.attach(light)

    # -- epoch protocol ----------------------------------------------------

    def run_epoch(self, target: float) -> Tuple[int, Dict[int, bytes]]:
        """Advance to the barrier; return (events fired, outbound frames)."""
        fired = self.simulator.advance_until(target)
        return fired, self.gateway.drain()

    def settle_round(self) -> Tuple[int, float, Dict[int, bytes]]:
        """Drain the local queue completely (finalize's settle loop).

        Returns this shard's clock too, so the coordinator can advance
        the fleet clock to the quiescence point, leaving ``now`` at the
        last delivered event.
        """
        fired = self.simulator.advance()
        return fired, self.simulator.now, self.gateway.drain()

    def inject(self, blob: bytes, barrier_time: Optional[float]) -> None:
        """Schedule a barrier's worth of inbound frames.

        Arrivals are clamped forward to the barrier (frames produced in
        epoch *k* cannot act before epoch *k*'s end — that quantization
        is exactly why the shard count is part of the configuration);
        during settle, where shard clocks have diverged, the clamp is to
        this shard's own ``now``.
        """
        floor = barrier_time if barrier_time is not None else self.simulator.now
        net = self.network
        for frame in decode_frames(blob):
            when = max(frame.arrival, floor)
            if frame.kind is FrameKind.PAYLOAD:
                self.simulator.schedule_at(
                    when,
                    net.deliver_remote_payload,
                    frame.dst,
                    frame.to_message(),
                    frame.wants_headers,
                )
            elif frame.kind is FrameKind.INV:
                self.simulator.schedule_at(
                    when,
                    net.receive_remote_inv,
                    frame.dst,
                    frame.src,
                    frame.message_kind,
                    frame.origin,
                    frame.dedup_key,
                )
            else:  # GETDATA: dst is the local announcer serving the pull
                message = self.gateway.content.get(frame.dedup_key)
                if message is None:
                    # Content this shard never announced (or a fleet
                    # restart dropped): the pull dies; finalize's direct
                    # resync closes any gap this leaves.
                    continue
                self.simulator.schedule_at(
                    when,
                    net.serve_remote_getdata,
                    frame.dst,
                    frame.src,
                    message,
                    frame.wants_headers,
                )

    # -- control plane -----------------------------------------------------

    def mine(
        self, winner: str, records: Tuple[ChainRecord, ...], difficulty: int
    ) -> Optional[Block]:
        """The sampled winner extends its own head and announces.

        Returns None, mining nothing, while the winner is crashed — its
        hashpower is offline for the round.
        """
        replica = self.replicas[winner]
        if replica.crashed:
            return None
        block = replica.assemble_block(
            timestamp=self.simulator.now, records=records, difficulty=difficulty
        )
        replica.receive_block(block)
        replica.broadcast(MessageKind.BLOCK_ANNOUNCE, block)
        return block

    def node(self, name: str):
        """The full or light node this shard owns under ``name``."""
        node = self.replicas.get(name) or self.light_replicas.get(name)
        if node is None:
            raise KeyError(f"shard {self.index} does not own {name!r}")
        return node

    def crash(self, name: str) -> None:
        self.node(name).crash()

    def restart(self, name: str) -> None:
        self.node(name).restart()

    def store_fault(self, name: str, kind: str, params: Dict[str, Any]) -> None:
        """Corrupt a (crashed) member's durable store in place."""
        store = self.node(name).store
        if store is None:
            raise ValueError(f"{name!r} has no durable store attached")
        apply_store_fault(store, kind, **params)

    # -- reconciliation ----------------------------------------------------

    def heaviest_candidate(self) -> Optional[Tuple[int, str, bytes]]:
        """(total difficulty, name, head id) of the best alive replica.

        Name-sorted with strictly-heavier replacement, so the
        coordinator's pick over per-shard candidates (difficulty, then
        name) is the pick one loop over the whole fleet would make.
        """
        best: Optional[ReplicaNode] = None
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if replica.crashed:
                continue
            if (
                best is None
                or replica.chain.total_difficulty() > best.chain.total_difficulty()
            ):
                best = replica
        if best is None:
            return None
        return best.chain.total_difficulty(), best.name, best.head_id()

    def export_replica_chain(self, name: str) -> bytes:
        """The named replica's canonical chain, serialized."""
        return export_chain(self.replicas[name].chain)

    def adopt(self, chain_blob: Optional[bytes], winner: str) -> None:
        """Close residual gaps against the fleet-wide heaviest chain.

        The donor is the live winner replica when this shard owns it,
        else the winner's chain imported from ``chain_blob`` —
        byte-identical content, so the walk, the adopted blocks, and the
        resync counters come out the same either way.
        """
        donor = self.replicas.get(winner)
        if donor is None:
            donor = _ChainDonor(
                import_chain(chain_blob, confirmation_depth=self.confirmation_depth)
            )
        winner_head = donor.chain.head.block_id
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if name == winner or replica.crashed:
                continue
            if replica.head_id() != winner_head:
                replica.resync_from(donor)
        for name in sorted(self.light_replicas):
            light = self.light_replicas[name]
            if not light.crashed:
                light.resync()

    # -- inspection (picklable primitives) ---------------------------------

    def heads(self) -> Dict[str, bytes]:
        return {name: replica.head_id() for name, replica in self.replicas.items()}

    def light_heads(self) -> Dict[str, bytes]:
        return {name: light.tip_id() for name, light in self.light_replicas.items()}

    def chain_bytes(self) -> Dict[str, bytes]:
        return {
            name: confirmed_chain_bytes(replica.chain)
            for name, replica in self.replicas.items()
        }

    def summary(self) -> Dict[str, float]:
        return self.network.summary()

    def counters(self) -> Dict[str, Dict[str, int]]:
        counters: Dict[str, Dict[str, int]] = {}
        for name, replica in self.replicas.items():
            counters[name] = {
                "blocks_accepted": replica.blocks_accepted,
                "blocks_rejected": replica.blocks_rejected,
                "resyncs_performed": replica.resyncs_performed,
                "blocks_resynced": replica.blocks_resynced,
                "crash_count": replica.crash_count,
                "restart_count": replica.restart_count,
                "store_recoveries": replica.store_recoveries,
            }
        for name, light in self.light_replicas.items():
            counters[name] = {
                "headers_accepted": light.headers_accepted,
                "header_resyncs": light.header_resyncs,
                "crash_count": light.crash_count,
                "restart_count": light.restart_count,
                "store_recoveries": light.store_recoveries,
            }
        return counters

    def telemetry_payload(self) -> Optional[Dict[str, Any]]:
        return self.telemetry.snapshot_payload() if self.telemetry else None

    def close(self) -> None:
        for node in (*self.replicas.values(), *self.light_replicas.values()):
            if node.store is not None:
                node.store.close()


#: One executor command: ``(ShardState method name, shard index, args)``.
_Command = Tuple[str, int, Tuple[Any, ...]]


class _InProcess:
    """Shards in this process: every shard for ``jobs=1`` (the parity
    oracle, and the whole engine for a one-shard fleet), or one worker
    process's share."""

    def __init__(self, blueprint: _Blueprint, owned: Sequence[int]) -> None:
        self.states = {index: ShardState(blueprint, index) for index in owned}

    def run(self, commands: Sequence[_Command]) -> List[Any]:
        """Run commands in order: ``states[shard].op(*args)`` each."""
        return [
            getattr(self.states[shard], op)(*args) for op, shard, args in commands
        ]

    def close(self) -> None:
        for state in self.states.values():
            state.close()


def _shard_worker(conn, blueprint: _Blueprint, owned: Tuple[int, ...]) -> None:
    """Persistent worker: owns a set of shards, serves command batches."""
    shards = _InProcess(blueprint, owned)
    try:
        while True:
            commands = conn.recv()
            if commands is None:  # stop: flush the stores, then exit
                shards.close()
                conn.send(("ok", None))
                return
            try:
                conn.send(("ok", shards.run(commands)))
            except Exception as exc:  # ship the failure, keep serving
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):
        pass


class _Workers:
    """Shards spread round-robin over persistent worker processes."""

    def __init__(self, blueprint: _Blueprint, workers: int) -> None:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        shards = blueprint.spec.shards
        self._pipes = []
        self._procs = []
        for worker in range(workers):
            owned = tuple(s for s in range(shards) if s % workers == worker)
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shard_worker,
                args=(child_conn, blueprint, owned),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def run(self, commands: Sequence[_Command]) -> List[Any]:
        """One round trip per worker the batch touches; results in order."""
        positions: Dict[int, List[int]] = {}
        for position, (_, shard, _) in enumerate(commands):
            positions.setdefault(shard % len(self._pipes), []).append(position)
        for worker, owned in positions.items():
            self._pipes[worker].send([commands[p] for p in owned])
        results: List[Any] = [None] * len(commands)
        failures = []
        for worker, owned in positions.items():
            status, values = self._pipes[worker].recv()
            if status != "ok":
                failures.append(values)
                continue
            for position, value in zip(owned, values):
                results[position] = value
        if failures:
            raise RuntimeError(f"shard worker failed: {failures[0]}")
        return results

    def close(self) -> None:
        for pipe, proc in zip(self._pipes, self._procs):
            try:
                pipe.send(None)
                pipe.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            pipe.close()
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()


class _ControlEvent:
    """A coordinator-scheduled callback, fired at an epoch boundary."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback, args) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Unschedule (idempotent)."""
        self.cancelled = True

    def __lt__(self, other: "_ControlEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ShardedSimulator:
    """A replica fleet, serial or partitioned, behind one time-control surface.

    ``step``/``run_blocks`` drive the mining loop: each round advances
    the fleet by the sampled block interval, then the winner assembles
    a block on *its own* head and announces it.  Byzantine winners
    include their queued records regardless of validity; honest
    replicas with a semantic record check reject such blocks and keep
    mining the clean branch.  ``submit_record``/
    ``inject_byzantine_record`` feed the record queues,
    ``crash``/``restart``/``inject_store_fault`` form the chaos plane,
    ``finalize`` converges the fleet, and the clock verbs
    (``advance``/``advance_until``/``advance_for``, ``schedule``/
    ``schedule_at``) keep experiments and chaos plans engine-agnostic.

    ``shares`` maps full-node names to hashpower; its keys name the
    full nodes (default: the spec's equal shares over ``provider-i``).

    ``jobs`` picks the execution strategy only: 1 runs every shard in
    this process (the parity oracle), >1 spreads shards over that many
    persistent fork workers.  Results are bit-identical either way.

    Coordinator-scheduled callbacks fire *at epoch boundaries*: the
    engine cuts a barrier exactly at each callback's due time, so a
    crash scheduled for ``t`` lands when every shard's clock reads ``t``.
    """

    def __init__(
        self,
        spec: FleetSpec,
        shares: Optional[Mapping[str, float]] = None,
        record_check: Optional[RecordCheck] = None,
        byzantine: Optional[Set[str]] = None,
        difficulty: int = 1000,
        mean_block_time: float = 15.35,
        latency: LatencyModel = DEFAULT_LATENCY,
        confirmation_depth: int = 6,
        seed: int = 0,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not isinstance(spec, FleetSpec):
            raise TypeError(f"spec must be a FleetSpec, got {type(spec).__name__}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.spec = spec
        if shares is None:
            shares = spec.equal_shares()
        elif len(shares) != spec.full_nodes:
            raise ValueError(
                "shares must name exactly the spec's full nodes "
                f"({spec.full_nodes} providers)"
            )
        full_names = list(shares)
        light_names = spec.light_names()
        clashing = set(full_names) & set(light_names)
        if clashing:
            raise ValueError(
                f"full-node names clash with light replicas: {sorted(clashing)}"
            )
        self.byzantine = set(byzantine or ())
        unknown = self.byzantine - set(full_names)
        if unknown:
            raise ValueError(f"byzantine names not in the fleet: {sorted(unknown)}")
        self._full_names = full_names
        # Master rng consumption order: topology seed, network seed,
        # model seed.  With one shard the network seed is used directly
        # (derive_shard_seeds' k=1 case).
        rng = random.Random(seed)
        topo_seed = rng.randrange(2**31)
        net_base = rng.randrange(2**31)
        model_seed = rng.randrange(2**31)
        self._plan = build_plan(spec, _interleave(full_names, light_names))
        blueprint = _Blueprint(
            spec=spec,
            full_names=tuple(full_names),
            assignments=self._plan.assignments,
            topo_seed=topo_seed,
            shard_seeds=tuple(derive_shard_seeds(net_base, spec.shards)),
            difficulty=difficulty,
            confirmation_depth=confirmation_depth,
            latency=latency,
            record_check=record_check,
            byzantine=frozenset(self.byzantine),
            telemetry_enabled=telemetry is not None and telemetry.enabled,
        )
        self.model = MiningModel.from_shares(
            shares,
            difficulty=difficulty,
            mean_block_time=mean_block_time,
            rng=random.Random(model_seed),
        )
        workers = min(jobs, spec.shards)
        self.jobs = workers
        if workers > 1:
            self._executor = _Workers(blueprint, workers)
        else:
            self._executor = _InProcess(blueprint, range(spec.shards))
        self.telemetry = telemetry
        self._telemetry_merged = False
        self._difficulty = difficulty
        self._barrier = _BARRIER_INTERVAL if spec.shards > 1 else math.inf
        self._now = 0.0
        self._control_heap: List[_ControlEvent] = []
        self._control_seq = itertools.count()
        self._honest_mempool: List[ChainRecord] = []
        self._byzantine_queue: Dict[str, List[ChainRecord]] = {
            name: [] for name in self.byzantine
        }
        self.blocks_mined = 0
        self._closed = False

    # -- executor protocol ---------------------------------------------------

    def _each(self, op: str, *args: Any) -> List[Any]:
        """``op(*args)`` on every shard; results in shard order."""
        return self._executor.run(
            [(op, index, args) for index in range(self.spec.shards)]
        )

    def _on(self, name: str, op: str, *args: Any) -> Any:
        """``op(name, *args)`` on the shard owning ``name``."""
        command = (op, self._plan.shard_of(name), (name, *args))
        return self._executor.run([command])[0]

    # -- the canonical time-control surface --------------------------------

    @property
    def now(self) -> float:
        """The fleet clock (every shard agrees at barriers)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> _ControlEvent:
        """Run ``callback(*args)`` after ``delay`` fleet seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _ControlEvent:
        """Run ``callback(*args)`` at an absolute fleet time.

        The callback fires on the coordinator at an epoch boundary cut
        exactly at ``time`` — typically to drive the control plane
        (``crash``/``restart``/``inject_store_fault``/``submit_record``).
        """
        if time < self._now:
            raise ValueError("cannot schedule into the past")
        event = _ControlEvent(time, next(self._control_seq), callback, args)
        heapq.heappush(self._control_heap, event)
        return event

    def _next_control_time(self) -> Optional[float]:
        heap = self._control_heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def _fire_controls(self) -> None:
        heap = self._control_heap
        while heap and (heap[0].cancelled or heap[0].time <= self._now):
            event = heapq.heappop(heap)
            if not event.cancelled:
                event.callback(*event.args)

    def advance_until(self, deadline: float) -> int:
        """Run every shard to ``deadline`` in barrier-separated epochs."""
        fired = 0
        deadline = max(deadline, self._now)
        while True:
            target = min(deadline, self._now + self._barrier)
            next_control = self._next_control_time()
            if next_control is not None and next_control < target:
                target = max(next_control, self._now)
            fired += self._epoch(target)
            self._now = target
            self._fire_controls()
            if self._now >= deadline:
                return fired

    def advance_for(self, duration: float) -> int:
        """Run every shard for the next ``duration`` fleet seconds."""
        return self.advance_until(self._now + duration)

    def advance(self, max_events: Optional[int] = None) -> int:
        """Run the whole fleet to quiescence (cross-shard included)."""
        if max_events is not None:
            raise ValueError(
                "the fleet engine always drains to quiescence; "
                "bound the run with advance_until/advance_for instead"
            )
        fired = self._settle()
        self._fire_controls()
        return fired

    def _epoch(self, target: float) -> int:
        results = self._each("run_epoch", target)
        self._inject(self._route([frames for _, frames in results]), target)
        return sum(fired for fired, _ in results)

    @staticmethod
    def _route(outboxes: List[Dict[int, bytes]]) -> Dict[int, bytes]:
        """Merge per-source frame blobs per destination, source-ordered.

        Framed blobs concatenate losslessly, and concatenating in shard
        index order makes barrier injection order independent of which
        worker answered first — the heart of the jobs-parity guarantee.
        """
        routed: Dict[int, List[bytes]] = {}
        for outbox in outboxes:
            for dst in sorted(outbox):
                routed.setdefault(dst, []).append(outbox[dst])
        return {dst: b"".join(blobs) for dst, blobs in routed.items()}

    def _inject(
        self, routed: Dict[int, bytes], barrier_time: Optional[float]
    ) -> None:
        if routed:
            self._executor.run(
                [
                    ("inject", dst, (blob, barrier_time))
                    for dst, blob in sorted(routed.items())
                ]
            )

    def _settle(self) -> int:
        fired = 0
        for _ in range(_MAX_SETTLE_ROUNDS):
            results = self._each("settle_round")
            fired += sum(count for count, _, _ in results)
            # The fleet clock lands on the last delivered event, so a
            # subsequent step() advances from quiescence, not from the
            # pre-settle barrier.
            self._now = max(self._now, *(now for _, now, _ in results))
            routed = self._route([frames for _, _, frames in results])
            if not routed:
                return fired
            self._inject(routed, None)
        raise RuntimeError("cross-shard traffic failed to quiesce")

    # -- record feeds -------------------------------------------------------

    def submit_record(self, record: ChainRecord) -> None:
        """Queue an honest record for the next honest winner's block."""
        self._honest_mempool.append(record)

    def inject_byzantine_record(self, miner: str, record: ChainRecord) -> None:
        """Queue a (typically invalid) record for a byzantine miner."""
        if miner not in self.byzantine:
            raise ValueError(f"{miner} is not byzantine")
        self._byzantine_queue[miner].append(record)

    # -- mining drive --------------------------------------------------------

    def step(self) -> Optional[Block]:
        """One mining round: advance all shards by the sampled interval,
        then the winner (wherever it lives) extends its own head and
        announces.

        Returns None when the winner is crashed — however it went down —
        and its queue then waits for a later round.
        """
        outcome = self.model.next_block()
        self.advance_until(self._now + outcome.interval)
        winner = outcome.winner
        if winner in self.byzantine:
            queue = self._byzantine_queue[winner]
        else:
            queue = self._honest_mempool
        block = self._on(winner, "mine", tuple(queue), self._difficulty)
        if block is None:
            return None
        queue.clear()
        self.blocks_mined += 1
        return block

    def run_blocks(self, count: int) -> List[Optional[Block]]:
        """Mine ``count`` rounds (entries are None for crashed winners)."""
        return [self.step() for _ in range(count)]

    def settle(self) -> None:
        """Deliver all in-flight gossip, cross-shard frames included."""
        self._settle()

    # -- chaos plane ---------------------------------------------------------

    def crash(self, name: str) -> None:
        """Crash a fleet member (full or light) wherever it lives."""
        self._on(name, "crash")

    def restart(self, name: str) -> None:
        """Restart a crashed member; its in-shard recovery hooks run."""
        self._on(name, "restart")

    def inject_store_fault(self, name: str, kind: str, **params: Any) -> None:
        """Corrupt a member's durable store (``torn_write``/``bit_flip``/
        ``drop_snapshot``/``drop_index``), as disk damage behind a dead
        process; the harm surfaces at the restart's store recovery."""
        if kind not in STORE_FAULT_PARAMS:
            raise ValueError(
                f"unknown store fault {kind!r} (use {tuple(STORE_FAULT_PARAMS)})"
            )
        self._on(name, "store_fault", kind, params)

    # -- convergence ---------------------------------------------------------

    def finalize(self) -> None:
        """Settle, then converge the fleet on its heaviest chain.

        Bounded-fanout relays do not guarantee every broadcast reaches
        every node, so after gossip drains each straggler resyncs from
        the globally heaviest alive replica (difficulty, then name) —
        other shards through its exported chain — and light replicas
        then resync from their in-shard servers.
        """
        self._settle()
        best = self._global_heaviest()
        if best is not None:
            winner = best[1]
            # One shard adopts from the live winner; other shards need
            # its chain exported across the boundary.
            blob = None
            if self.spec.shards > 1:
                blob = self._on(winner, "export_replica_chain")
            self._each("adopt", blob, winner)
        self._merge_telemetry()

    def _global_heaviest(self) -> Optional[Tuple[int, str, bytes]]:
        best: Optional[Tuple[int, str, bytes]] = None
        for candidate in self._each("heaviest_candidate"):
            if candidate is None:
                continue
            if (
                best is None
                or candidate[0] > best[0]
                or (candidate[0] == best[0] and candidate[1] < best[1])
            ):
                best = candidate
        return best

    def _merge_telemetry(self) -> None:
        if self.telemetry is None or not self.telemetry.enabled:
            return
        if self._telemetry_merged:
            return
        self._telemetry_merged = True
        for payload in self._each("telemetry_payload"):
            if payload is not None:
                self.telemetry.merge_payload(payload)

    # -- inspection ----------------------------------------------------------

    def _gather(self, op: str) -> Dict[str, Any]:
        """Merge one per-member view across shards, shard-ordered."""
        merged: Dict[str, Any] = {}
        for part in self._each(op):
            merged.update(part)
        return merged

    def heads(self) -> Dict[str, bytes]:
        """Each full replica's canonical head id, fleet-wide."""
        return self._gather("heads")

    def light_heads(self) -> Dict[str, bytes]:
        """Each light replica's best header id, fleet-wide."""
        return self._gather("light_heads")

    def chain_bytes(self) -> Dict[str, bytes]:
        """Each full replica's confirmed chain, serialized — the
        bit-level parity artifact the 3-seed suite compares."""
        return self._gather("chain_bytes")

    def replica_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-member accept/reject/resync/lifecycle counters."""
        return self._gather("counters")

    def converged(self, among: Optional[Set[str]] = None) -> bool:
        """True if (the given) full replicas agree on one head."""
        heads = self.heads()
        names = among if among is not None else set(heads)
        return len({heads[name] for name in names}) == 1

    def light_converged(self) -> bool:
        """True if all light tips match the heaviest full head."""
        tips = set(self.light_heads().values())
        if not tips:
            return True
        if len(tips) != 1:
            return False
        best = self._global_heaviest()
        return best is None or tips == {best[2]}

    def honest_names(self) -> Set[str]:
        """Full replicas not marked byzantine."""
        return set(self._full_names) - self.byzantine

    def export_canonical(self) -> bytes:
        """The heaviest alive replica's canonical chain, serialized —
        feed to :func:`repro.chain.serialization.import_chain` or a
        :class:`~repro.chain.ledger.LedgerStateMachine` replay."""
        best = self._global_heaviest()
        if best is None:
            raise RuntimeError("no alive replica to export from")
        return self._on(best[1], "export_replica_chain")

    def summary(self) -> Dict[str, float]:
        """Fleet-wide transport counters (shard summaries merged)."""
        merged: Dict[str, float] = {}
        for summary in self.shard_summaries().values():
            for key, value in summary.items():
                if key == "time":
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def shard_summaries(self) -> Dict[int, Dict[str, float]]:
        """Per-shard transport counters, for imbalance inspection."""
        return dict(enumerate(self._each("summary")))

    # -- in-process views (jobs=1) -------------------------------------------

    @property
    def shard_states(self) -> Optional[Dict[int, ShardState]]:
        """Direct shard access — in-process fleets only (None under workers)."""
        if isinstance(self._executor, _InProcess):
            return self._executor.states
        return None

    def _local(self) -> Dict[int, ShardState]:
        states = self.shard_states
        if states is None:
            raise RuntimeError("live node views need an in-process fleet (jobs=1)")
        return states

    def _only_shard(self) -> ShardState:
        if self.spec.shards != 1:
            raise RuntimeError(
                f"a {self.spec.shards}-shard fleet has no single simulator or "
                "network; use the fleet's own clock and inspection verbs"
            )
        return self._local()[0]

    @property
    def replicas(self) -> Dict[str, ReplicaNode]:
        """Every full replica by name, shard by shard."""
        return {
            name: replica
            for state in self._local().values()
            for name, replica in state.replicas.items()
        }

    @property
    def light_replicas(self) -> Dict[str, LightReplicaNode]:
        """Every light replica by name, shard by shard."""
        return {
            name: light
            for state in self._local().values()
            for name, light in state.light_replicas.items()
        }

    @property
    def simulator(self) -> Simulator:
        """A one-shard fleet's event loop (schedule on it; advance the
        fleet through :meth:`advance_until` so it keeps one clock)."""
        return self._only_shard().simulator

    @property
    def network(self) -> GossipNetwork:
        """A one-shard fleet's gossip overlay (partitions, loss, crashes)."""
        return self._only_shard().network

    def _node(self, name: str):
        return self._local()[self._plan.shard_of(name)].node(name)

    def record_on_honest_chains(self, record_id: bytes) -> bool:
        """True if any honest replica has the record on its canonical chain."""
        return any(
            self._node(name).chain.locate_record(record_id) is not None
            for name in self.honest_names()
        )

    def _heaviest_replica(self) -> Optional[ReplicaNode]:
        """The alive replica with the heaviest chain (name-ordered ties)."""
        best = self._global_heaviest()
        return None if best is None else self._node(best[1])

    def query_service(self, name: str, **kwargs):
        """A :class:`~repro.query.service.QueryService` over one member.

        ``name`` may be a full replica (whole query surface, index
        persisted into its durable store when it has one) or a light
        replica (header-backed subset).  The staleness reference
        defaults to the fleet's heaviest alive replica, so responses
        report how far this node lags the canonical chain — e.g. mid
        resync after a restart — and the batch scheduler defaults to
        the member's shard simulator.
        """
        from repro.query.service import QueryService  # noqa: PLC0415 - cycle

        if name not in self._plan:
            raise KeyError(f"{name!r} names no replica in this fleet")
        state = self._local()[self._plan.shard_of(name)]
        kwargs.setdefault("canonical", self._heaviest_replica)
        kwargs.setdefault("simulator", state.simulator)
        return QueryService.connect_node(state.node(name), **kwargs)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers and close every store; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        self._merge_telemetry()
        self._executor.close()

    def __enter__(self) -> "ShardedSimulator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
