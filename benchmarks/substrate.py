"""Substrate microbenchmark lane — the repo's perf trajectory, recorded.

``scripts/run_bench.sh`` (or ``PYTHONPATH=src python -m
benchmarks.substrate`` from the repository root) times the hot paths
every experiment leans on and writes ``BENCH_substrate.json`` so future
PRs measure against a recorded baseline instead of folklore.

The lane is one table, :data:`PROBES`.  Each :class:`Probe` names its
workload and layer, the function that runs it, the table rows it
renders, and the gates on its result.  A probe that has a pinned oracle
(the naive nonce loop, the pre-telemetry miner, the scalar Eq. 7/10
loop, the full-chain scan, the ECDSA ladder, the serial runner) asserts
parity against it before it times anything.  :data:`GATES` is every
floor and ceiling of the lane; :func:`check_gates` evaluates them for
the CLI and ``benchmarks/test_bench_perf_trajectory.py`` parametrizes
over the same list.

Timings take the best of ``repeats`` runs (min is the standard noise
filter for microbenchmarks); workloads are seeded and deterministic.
Parallel probes record ``speedup_gated`` — whether the host has more
than one core, i.e. whether their wall-clock ratio is meaningful to
gate on; their bit-parity is asserted on every host.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chain.block import Block, BlockHeader, ChainRecord, GENESIS_PARENT, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import MiningSimulation, make_genesis
from repro.chain.ledger import LedgerStateMachine, apply_block
from repro.chain.merkle import MerkleTree
from repro.chain.pow import PAPER_HASHPOWER_SHARES, difficulty_to_target, mine_block
from repro.chain.transactions import make_transaction
from repro.contracts.vm import ContractRuntime
from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
)
from repro.core.reports import DetailedReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto import ecdsa
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import field_frame, fields_midstate, hash_fields
from repro.crypto.keys import Address, KeyPair
from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.vulnerability import Severity
from repro.economics.batch import detector_settlement, wei_list
from repro.experiments.fig5 import run_fig5b
from repro.experiments.fleet_scale import _fleet_trial
from repro.experiments.forks import run_fork_rate
from repro.experiments.harness import ResultTable
from repro.network.config import NetworkConfig
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.query import QueryRequest, QueryService
from repro.query.indices import ChainIndex
from repro.query.persistence import load_index, save_index
from repro.shard import FleetSpec, ShardedSimulator
from repro.store import ChainStore
from tests.crypto.ladder import ladder_mult, ladder_sign, ladder_verify

#: Ceiling on the disabled-telemetry nonce-search slowdown vs the
#: pinned pre-telemetry loop (the "near-zero disabled path" contract).
TELEMETRY_OVERHEAD_CEILING = 1.05

#: Minimum length of one timed sample for sub-millisecond operations:
#: shorter samples are dominated by scheduler and timer jitter.
MIN_SAMPLE_SECONDS = 0.05

_MINER = KeyPair.from_seed(b"bench-substrate").address


def naive_mine_block(
    block: Block, max_attempts: int = 1_000_000, start_nonce: int = 0
) -> Optional[Block]:
    """The pre-midstate reference miner, pinned for speedup comparisons.

    Byte-for-byte the algorithm `mine_block` used before the midstate
    rewrite: allocate a header per nonce and re-hash all seven fields
    through :meth:`BlockHeader.header_hash`.
    """
    header = block.header
    target = difficulty_to_target(header.difficulty)
    for nonce in range(start_nonce, start_nonce + max_attempts):
        candidate = header.with_nonce(nonce)
        if int.from_bytes(candidate.header_hash(), "big") < target:
            return Block(header=candidate, records=block.records)
    return None


def pretelemetry_mine_block(
    block: Block, max_attempts: int = 1_000_000, start_nonce: int = 0
) -> Optional[Block]:
    """The midstate miner as it stood before telemetry, pinned.

    Byte-for-byte the hot loop of ``mine_block`` without the telemetry
    parameter or the post-loop accounting; the reference the ≤5%
    disabled-path overhead gate measures against.
    """
    header = block.header
    target = difficulty_to_target(header.difficulty)
    midstate = fields_midstate(
        header.prev_block_id,
        header.merkle_root,
        repr(float(header.timestamp)),
    )
    suffix = (
        field_frame(header.height)
        + field_frame(header.difficulty)
        + field_frame(header.miner.value)
    )
    for nonce in range(start_nonce, start_nonce + max_attempts):
        hasher = midstate.copy()
        hasher.update(field_frame(nonce))
        hasher.update(suffix)
        digest = hasher.digest()
        if int.from_bytes(digest, "big") < target:
            winner = header.with_nonce(nonce)
            object.__setattr__(winner, "_hash", digest)
            return Block(header=winner, records=block.records)
    return None


def full_scan_transaction_count(chain: Blockchain, address: Address) -> int:
    """The historical ``Eth.get_transaction_count`` loop, pinned.

    Byte-for-byte the O(chain) scan the sender index replaced; the
    ``query_serving`` probe asserts index parity against it before
    timing, then times the two head to head.
    """
    count = 0
    for block in chain.iter_canonical():
        for record in block.records:
            if record.sender == address:
                count += 1
    return count


def _best_of(repeats: int, fn: Callable[[], Any]) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _per_call(repeats: int, fn: Callable[[], Any]) -> float:
    """Best per-call seconds of ``fn`` over ``repeats`` samples, each
    sample running ``fn`` back to back for at least
    :data:`MIN_SAMPLE_SECONDS`."""
    started = time.perf_counter()
    fn()
    once = time.perf_counter() - started
    number = max(1, math.ceil(MIN_SAMPLE_SECONDS / max(once, 1e-9)))

    def _sample() -> None:
        for _ in range(number):
            fn()

    return _best_of(repeats, _sample) / number


def _speedup_gated() -> bool:
    """A single-core host serializes worker pools, so wall-clock ratios
    only gate a regression when there is more than one core."""
    return (os.cpu_count() or 1) > 1


def _bench_block(difficulty: int = 1 << 255) -> Block:
    """An unmined single-record block at (by default) unwinnable difficulty."""
    records = (
        ChainRecord(
            kind=RecordKind.TRANSACTION,
            record_id=hash_fields("bench-substrate-record"),
            payload=b"x" * 64,
        ),
    )
    return Block.assemble(GENESIS_PARENT, 1, records, 1.0, difficulty, _MINER)


def _assert_same_nonce(oracle: Callable[..., Optional[Block]]) -> None:
    """``mine_block`` must accept the nonce ``oracle`` accepts."""
    easy = _bench_block(difficulty=64)
    expected = oracle(easy, max_attempts=100_000)
    found = mine_block(easy, max_attempts=100_000)
    if expected is None or found is None or expected.header.nonce != found.header.nonce:
        raise AssertionError(f"midstate miner disagrees with {oracle.__name__}")


def _fresh_headers(count: int) -> List[BlockHeader]:
    """Distinct headers with cold identity caches."""
    return [
        BlockHeader(
            prev_block_id=GENESIS_PARENT,
            merkle_root=hash_fields("root", i),
            timestamp=float(i),
            nonce=i,
            height=1,
            difficulty=100,
            miner=_MINER,
        )
        for i in range(count)
    ]


def _gossip_round(node_count: int) -> int:
    """One flood over a complete overlay; returns messages sent."""
    simulator = Simulator()
    topology = build_topology([f"n{i}" for i in range(node_count)])
    network = GossipNetwork(simulator, topology, rng=random.Random(7))
    network.attach_all(Node(f"n{i}") for i in range(node_count))
    message = Message.wrap(MessageKind.CONTROL, b"bench", origin="n0")
    network.broadcast("n0", message)
    simulator.advance()
    return network.messages_sent


def _ledger_workload(blocks: int):
    """A chain of transaction-bearing blocks plus a valid candidate.

    Returns (chain, machine, candidate) where ``candidate`` extends the
    head — the workload :meth:`LedgerStateMachine.validate_block` sees
    when miners screen incoming records.
    """
    alice = KeyPair.from_seed(b"bench-ledger-alice")
    bob = KeyPair.from_seed(b"bench-ledger-bob")
    difficulty = 100
    chain = Blockchain(make_genesis(difficulty=difficulty))
    machine = LedgerStateMachine(
        genesis_allocations={alice.address: 10**24}
    )

    def _tx_record(nonce: int) -> ChainRecord:
        tx = make_transaction(alice, bob.address, 10**15, nonce)
        return ChainRecord(
            kind=RecordKind.TRANSACTION,
            record_id=tx.tx_id(),
            payload=tx.to_payload(),
            fee=tx.fee_wei,
            sender=tx.sender,
        )

    def _next_block(records) -> Block:
        return Block.assemble(
            chain.head.block_id, chain.height + 1, tuple(records),
            chain.head.header.timestamp + 10.0, difficulty, _MINER,
        )

    for height in range(blocks):
        chain.add_block(_next_block(_tx_record(3 * height + i) for i in range(3)))
    return chain, machine, _next_block([_tx_record(3 * blocks)])


#: Signatures are never verified when chain payloads are re-parsed, so
#: the synthetic consumer-load chain carries a constant dummy instead
#: of paying pure-Python ECDSA per record.
_QUERY_DUMMY_SIG = Signature(1, 1)
_QUERY_SYSTEMS = ("camera", "doorlock", "thermostat", "router")
_QUERY_PROVIDERS = ("vendor-a", "vendor-b", "vendor-c")
_QUERY_DETECTORS = tuple(f"det-{i}" for i in range(8))
_QUERY_SEVERITIES = (Severity.HIGH, Severity.MEDIUM, Severity.LOW)


def _query_chain(blocks: int, records_per_block: int):
    """A mixed-record chain shaped like real consumer-facing history.

    Returns (chain, senders, record_ids): transactions, SRAs, and
    detailed reports interleaved, every record carrying a sender so the
    nonce index has real work to do.
    """
    rng = random.Random(51)
    senders = [Address(bytes([index + 1]) * 20) for index in range(8)]
    chain = Blockchain(make_genesis(difficulty=100))
    sra_ids: List[bytes] = []
    record_ids: List[bytes] = []
    tag = 0
    for height in range(1, blocks + 1):
        records = []
        for _ in range(records_per_block):
            tag += 1
            roll = rng.random()
            if roll < 0.2:
                provider = rng.choice(_QUERY_PROVIDERS)
                system = rng.choice(_QUERY_SYSTEMS)
                body = SRA(
                    provider_id=provider,
                    system_name=system,
                    system_version=f"v{tag}",
                    artifact_hash=hash_fields("bench-query-artifact", tag),
                    download_link=f"https://{provider}.example/{system}",
                    insurance_wei=10**18,
                    bounty_wei=10**17,
                )
                signed = SignedSRA(
                    body=body, claimed_id=body.sra_id(), signature=_QUERY_DUMMY_SIG
                )
                sra_ids.append(signed.sra_id)
                record = ChainRecord(
                    kind=RecordKind.SRA,
                    record_id=signed.sra_id,
                    payload=signed.to_payload(),
                    sender=rng.choice(senders),
                )
            elif roll < 0.5 and sra_ids:
                detector = rng.choice(_QUERY_DETECTORS)
                wallet = rng.choice(senders)
                # Reports routinely describe several flaws; 1-3
                # descriptions keeps the decode work representative.
                descriptions = tuple(
                    VulnerabilityDescription(
                        canonical=f"vuln-{tag}-{n}",
                        severity=rng.choice(_QUERY_SEVERITIES),
                        category="overflow",
                        wording=f"finding {tag} ({n})",
                    )
                    for n in range(rng.randint(1, 3))
                )
                sra_id = rng.choice(sra_ids)
                report_id = DetailedReport.compute_id(
                    sra_id, detector, wallet, descriptions
                )
                report = DetailedReport(
                    sra_id=sra_id,
                    detector_id=detector,
                    wallet=wallet,
                    descriptions=descriptions,
                    report_id=report_id,
                    signature=_QUERY_DUMMY_SIG,
                )
                record = ChainRecord(
                    kind=RecordKind.DETAILED_REPORT,
                    record_id=report.report_id,
                    payload=report.to_payload(),
                    sender=wallet,
                )
            else:
                record = ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields("bench-query-tx", tag),
                    payload=b"t" * 48,
                    sender=rng.choice(senders),
                )
            records.append(record)
        record_ids.extend(r.record_id for r in records)
        chain.add_block(
            Block.assemble(
                chain.head.block_id, height, tuple(records),
                chain.head.header.timestamp + 10.0, 100, _MINER,
            )
        )
    return chain, senders, record_ids


def _query_workload(
    rng: random.Random,
    count: int,
    senders: List[Address],
    record_ids: List[bytes],
    head_height: int,
) -> List[QueryRequest]:
    """``count`` mixed consumer requests, seeded and deterministic."""
    requests: List[QueryRequest] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.30:
            requests.append(
                QueryRequest.get_transaction_count(rng.choice(senders))
            )
        elif roll < 0.55:
            requests.append(
                QueryRequest.get_block(rng.randrange(head_height + 1))
            )
        elif roll < 0.70:
            requests.append(
                QueryRequest.get_transaction(rng.choice(record_ids))
            )
        elif roll < 0.80:
            requests.append(QueryRequest.get_balance(rng.choice(senders)))
        elif roll < 0.90:
            requests.append(
                QueryRequest.get_reports(system=rng.choice(_QUERY_SYSTEMS))
            )
        else:
            requests.append(
                QueryRequest.get_reports(
                    severity=rng.choice(_QUERY_SEVERITIES).value,
                    detector=rng.choice(_QUERY_DETECTORS),
                )
            )
    return requests


@dataclass
class Context:
    """What every probe reads: sizing, repeats, workers, earlier results."""

    quick: bool
    repeats: int
    workers: int
    parallel: bool
    results: Dict[str, Any] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return 0.2 if self.quick else 1.0


# -- probes: each returns its JSON entry -----------------------------------


def _header_hash_cold(ctx: Context) -> Dict[str, Any]:
    count = max(50, int(2000 * ctx.scale))

    def _hash_cold() -> None:
        for header in _fresh_headers(count):
            header.header_hash()

    seconds = _best_of(ctx.repeats, _hash_cold)
    return {"iterations": count, "seconds": seconds, "per_op_us": seconds / count * 1e6}


def _header_hash_cached(ctx: Context) -> Dict[str, Any]:
    iterations = max(1000, int(200_000 * ctx.scale))
    warm_header = _fresh_headers(1)[0]
    warm_header.header_hash()

    def _hash_cached() -> None:
        header_hash = warm_header.header_hash
        for _ in range(iterations):
            header_hash()

    seconds = _best_of(ctx.repeats, _hash_cached)
    cold_per_op = ctx.results["header_hash_cold"]["per_op_us"] / 1e6
    return {
        "iterations": iterations,
        "seconds": seconds,
        "per_op_us": seconds / iterations * 1e6,
        "speedup_vs_cold": cold_per_op / max(seconds / iterations, 1e-12),
    }


def _nonce_search(ctx: Context) -> Dict[str, Any]:
    """The midstate miner against the pinned pre-midstate naive loop."""
    _assert_same_nonce(naive_mine_block)
    attempts = max(500, int(20_000 * ctx.scale))
    unwinnable = _bench_block()
    naive_seconds = _best_of(
        ctx.repeats, lambda: naive_mine_block(unwinnable, max_attempts=attempts)
    )
    midstate_seconds = _best_of(
        ctx.repeats, lambda: mine_block(unwinnable, max_attempts=attempts)
    )
    return {
        "attempts": attempts,
        "naive_seconds": naive_seconds,
        "midstate_seconds": midstate_seconds,
        "naive_hashes_per_sec": attempts / naive_seconds,
        "midstate_hashes_per_sec": attempts / midstate_seconds,
        "speedup": naive_seconds / midstate_seconds,
        "same_nonce_as_naive": True,
    }


def _telemetry_overhead(ctx: Context) -> Dict[str, Any]:
    """Mining with telemetry off against the pinned pre-telemetry loop."""
    _assert_same_nonce(pretelemetry_mine_block)
    # Interleaved pairs so CPU frequency drift hits both sides equally;
    # the ratio of minima needs more repeats than plain timings do to
    # converge under a noisy host, so this probe sets its own floor.
    overhead_repeats = max(ctx.repeats, 12)
    # Short runs put the ratio at the mercy of scheduler jitter, so the
    # probe keeps full-size searches even under ``quick``.
    attempts = 20_000
    unwinnable = _bench_block()
    pinned_seconds = disabled_seconds = float("inf")
    for index in range(overhead_repeats):
        # Alternate which side runs first so a one-sided contention
        # burst cannot systematically tax the same loop every pair.
        sides = (
            (pretelemetry_mine_block, mine_block)
            if index % 2 == 0
            else (mine_block, pretelemetry_mine_block)
        )
        timings = {}
        for side in sides:
            started = time.perf_counter()
            side(unwinnable, max_attempts=attempts)
            timings[side] = time.perf_counter() - started
        pinned_seconds = min(pinned_seconds, timings[pretelemetry_mine_block])
        disabled_seconds = min(disabled_seconds, timings[mine_block])
        # The gate exists to catch a sustained slowdown, which would
        # keep every pair above the ceiling — once a clean pair meets
        # it, stop burning time.  Never before a floor of pairs, so a
        # single fluke-fast disabled run can't pass the probe alone.
        if (
            index >= 5
            and disabled_seconds / pinned_seconds <= TELEMETRY_OVERHEAD_CEILING
        ):
            break
    return {
        "attempts": attempts,
        "repeats": index + 1,
        "pinned_seconds": pinned_seconds,
        "disabled_seconds": disabled_seconds,
        "disabled_ratio": disabled_seconds / pinned_seconds,
        "ceiling": TELEMETRY_OVERHEAD_CEILING,
    }


def _economics_batch(ctx: Context) -> Dict[str, Any]:
    """Batch Eq. 7/10 settlement against the scalar per-detector loop,
    wei amounts asserted bit-identical before timing."""
    population = max(2_000, int(20_000 * ctx.scale))
    params = IncentiveParameters()
    rng = random.Random(17)
    counts = [float(rng.randint(0, 50)) for _ in range(population)]
    rhos = [rng.random() for _ in range(population)]
    counts_array = np.asarray(counts, dtype=np.float64)
    rhos_array = np.asarray(rhos, dtype=np.float64)

    def _econ_scalar() -> None:
        for n, rho in zip(counts, rhos):
            detector_incentive(params, n, rho)
            detector_cost(params, n, rho)

    def _econ_batch() -> None:
        detector_settlement(params, counts_array, rhos_array)

    scalar_wei = (
        [detector_incentive(params, n, r) for n, r in zip(counts, rhos)],
        [detector_cost(params, n, r) for n, r in zip(counts, rhos)],
    )
    batch_incentives, batch_costs = detector_settlement(
        params, counts_array, rhos_array
    )
    if (wei_list(batch_incentives), wei_list(batch_costs)) != scalar_wei:
        raise AssertionError(
            "batch economics settlement diverged from the scalar loop"
        )
    scalar_seconds = _best_of(ctx.repeats, _econ_scalar)
    batch_seconds = _best_of(ctx.repeats, _econ_batch)
    return {
        "population": population,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "scalar_settlements_per_sec": population / scalar_seconds,
        "batch_settlements_per_sec": population / batch_seconds,
        "speedup": scalar_seconds / batch_seconds,
        "identical_to_scalar": True,
    }


def _ledger_validate(ctx: Context) -> Dict[str, Any]:
    """Head-state-cached validation against full-chain replay."""
    chain_blocks = 20 if ctx.quick else 60
    chain, machine, candidate = _ledger_workload(chain_blocks)
    validations = 10 if ctx.quick else 30

    def _validate_cached() -> None:
        for _ in range(validations):
            if machine.validate_block(chain, candidate) is not None:
                raise AssertionError("bench candidate must validate")

    def _validate_replay() -> None:
        for _ in range(validations):
            state, nonces = machine.replay(chain)
            apply_block(state, nonces, candidate, machine.block_reward_wei)

    machine.invalidate()
    replay_seconds = _best_of(ctx.repeats, _validate_replay)
    machine.invalidate()
    cached_seconds = _best_of(ctx.repeats, _validate_cached)
    return {
        "chain_blocks": chain_blocks,
        "validations": validations,
        "replay_seconds": replay_seconds,
        "cached_seconds": cached_seconds,
        "speedup": replay_seconds / cached_seconds,
    }


def _ecdsa(ctx: Context) -> Dict[str, Any]:
    """Fixed-base sign and wNAF verify against the double-and-add
    ladder (``tests/crypto/ladder.py``)."""
    keys = KeyPair.from_seed(b"bench-keys")
    scalar, public = keys.private.scalar, keys.public.point
    digest = hash_fields("bench-message")
    # Parity first (this also builds the G table outside the timing).
    signature = ecdsa.sign(scalar, digest)
    if (
        signature != ladder_sign(scalar, digest)
        or public != ladder_mult(scalar, ecdsa.CURVE.g)
        or not ecdsa.verify(public, digest, signature)
        or not ladder_verify(public, digest, signature)
    ):
        raise AssertionError("ECDSA fast paths diverged from the ladder")
    # Ratios of minima converge slowly (see telemetry_overhead).
    repeats = max(ctx.repeats, 5)
    sign_s = _per_call(repeats, lambda: ecdsa.sign(scalar, digest))
    ladder_sign_s = _per_call(repeats, lambda: ladder_sign(scalar, digest))
    verify_s = _per_call(repeats, lambda: ecdsa.verify(public, digest, signature))
    ladder_verify_s = _per_call(
        repeats, lambda: ladder_verify(public, digest, signature)
    )
    return {
        "sign_us": sign_s * 1e6,
        "ladder_sign_us": ladder_sign_s * 1e6,
        "sign_speedup": ladder_sign_s / sign_s,
        "verify_us": verify_s * 1e6,
        "ladder_verify_us": ladder_verify_s * 1e6,
        "verify_speedup": ladder_verify_s / verify_s,
        "identical_to_ladder": True,
    }


def _merkle_build(ctx: Context) -> Dict[str, Any]:
    payloads = [hash_fields("bench-leaf", i) for i in range(256)]
    builds = max(5, int(50 * ctx.scale))

    def _merkle() -> None:
        for _ in range(builds):
            MerkleTree(payloads)

    seconds = _best_of(ctx.repeats, _merkle)
    return {
        "iterations": builds,
        "seconds": seconds,
        "per_build_ms": seconds / builds * 1e3,
    }


def _gossip(ctx: Context) -> Dict[str, Any]:
    nodes = 8 if ctx.quick else 16
    return {
        "nodes": nodes,
        "seconds": _best_of(ctx.repeats, lambda: _gossip_round(nodes)),
        "messages_sent": _gossip_round(nodes),
    }


def _mini_experiment(ctx: Context) -> Dict[str, Any]:
    """A small end-to-end mining run over the paper's hashpower split."""
    blocks = 100 if ctx.quick else 500

    def _run() -> None:
        addresses = {
            name: KeyPair.from_seed(name.encode()).address
            for name in PAPER_HASHPOWER_SHARES
        }
        MiningSimulation.from_shares(
            PAPER_HASHPOWER_SHARES, addresses, rng=random.Random(11)
        ).run_blocks(blocks)

    seconds = _best_of(ctx.repeats, _run)
    return {"blocks": blocks, "seconds": seconds, "blocks_per_sec": blocks / seconds}


def _store_replay(ctx: Context) -> Dict[str, Any]:
    """Log a linear chain frame by frame, then a cold process (fresh
    ChainStore) verifies every checksum, rebuilds the chain, and
    recovers the ledger from the newest snapshot."""
    blocks = 150 if ctx.quick else 600
    chain = Blockchain(make_genesis(difficulty=100))
    for height in range(1, blocks + 1):
        record = ChainRecord(
            kind=RecordKind.INITIAL_REPORT,
            record_id=hash_fields("bench-store-record", height),
            payload=b"r" * 120,
        )
        chain.add_block(
            Block.assemble(
                chain.head.block_id, height, (record,),
                chain.head.header.timestamp + 10.0, 100, _MINER,
            )
        )
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        path = os.path.join(root, "replica")
        store = ChainStore(path, snapshot_interval=64)
        append_started = time.perf_counter()
        for block in chain.iter_canonical():
            store.append(block)
        append_seconds = time.perf_counter() - append_started
        store.maybe_snapshot(chain, force=True)
        store.close()
        reopen_started = time.perf_counter()
        reopened = ChainStore(path, snapshot_interval=64)
        loaded = reopened.load_chain()
        replay = reopened.replay_ledger()
        reopen_seconds = time.perf_counter() - reopen_started
        if loaded is None or loaded.head.block_id != chain.head.block_id:
            raise AssertionError("cold reopen did not rebuild the benched chain")
        reopened.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "blocks": blocks,
        "append_seconds": append_seconds,
        "append_blocks_per_sec": blocks / append_seconds,
        "reopen_seconds": reopen_seconds,
        "replay_blocks_per_sec": (blocks + 1) / reopen_seconds,
        "snapshot_hit": replay.snapshot_hit,
        "frames_replayed": replay.frames_replayed,
    }


def _parallel_fig5b(ctx: Context) -> Dict[str, Any]:
    """``run_fig5b`` serial vs ``jobs>1``, balances asserted identical."""
    trials = 8 if ctx.quick else 24
    serial_started = time.perf_counter()
    serial = run_fig5b(trials=trials, jobs=None)
    serial_seconds = time.perf_counter() - serial_started
    parallel_started = time.perf_counter()
    parallel = run_fig5b(trials=trials, jobs=ctx.workers)
    parallel_seconds = time.perf_counter() - parallel_started
    if serial.balances != parallel.balances or serial.vpb != parallel.vpb:
        raise AssertionError("parallel fig5b diverged from the serial run")
    return {
        "trials": trials,
        "jobs": ctx.workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "speedup_gated": _speedup_gated(),
        "identical_to_serial": True,
    }


def _runner_scaling(ctx: Context) -> Dict[str, Any]:
    """fig5b trials are milliseconds each, so its probe mostly times
    pool spawn overhead; the fork-rate sweep runs whole replicated
    mining networks per trial — the regime ``--jobs`` exists for."""
    blocks = 60 if ctx.quick else 150
    started = time.perf_counter()
    serial = run_fork_rate(blocks=blocks, jobs=None)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_fork_rate(blocks=blocks, jobs=ctx.workers)
    parallel_seconds = time.perf_counter() - started
    if serial.points != parallel.points:
        raise AssertionError("parallel fork-rate sweep diverged from the serial run")
    return {
        "sweep": "fork_rate",
        "blocks": blocks,
        "trials": len(serial.points),
        "jobs": ctx.workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "speedup_gated": _speedup_gated(),
        "identical_to_serial": True,
    }


def _fleet_scale(ctx: Context) -> Dict[str, Any]:
    """At 1000 nodes, inventory announce + pull must move the fleet to
    the same converged state with >= 5x fewer messages than full
    flooding.  ``quick`` shrinks the fleet; the ratio holds (and grows)
    with size."""
    nodes = 200 if ctx.quick else 1000
    blocks = 2
    inv_started = time.perf_counter()
    inv = _fleet_trial((93, nodes, "inv", blocks, 1))
    inv_seconds = time.perf_counter() - inv_started
    flood_started = time.perf_counter()
    flood = _fleet_trial((93, nodes, "flood", blocks, 1))
    flood_seconds = time.perf_counter() - flood_started
    for label, point in (("inv", inv), ("flood", flood)):
        if not (point["full_converged"] and point["light_converged"]):
            raise AssertionError(f"{label}-mode fleet failed to converge")
    return {
        "nodes": nodes,
        "full_nodes": inv["full_nodes"],
        "light_nodes": inv["light_nodes"],
        "blocks": blocks,
        "inv_messages_sent": inv["messages_sent"],
        "flood_messages_sent": flood["messages_sent"],
        "inv_bytes_sent": inv["bytes_sent"],
        "flood_bytes_sent": flood["bytes_sent"],
        "inv_events_processed": inv["events_processed"],
        "flood_events_processed": flood["events_processed"],
        "inv_seconds": inv_seconds,
        "flood_seconds": flood_seconds,
        "messages_ratio": flood["messages_sent"] / inv["messages_sent"],
        "converged": True,
    }


def _assert_index_matches_scan(service: QueryService, chain: Blockchain, senders) -> None:
    """Every sender count, sampled blocks, every report filter."""
    for sender in senders:
        if service.index.sender_count(sender) != full_scan_transaction_count(
            chain, sender
        ):
            raise AssertionError("sender index diverged from the full scan")
    for height in (0, 1, chain.height // 2, chain.height):
        indexed = service.index.block_at_height(height)
        scanned = next(b for b in chain.iter_canonical() if b.height == height)
        if indexed.block_id != scanned.block_id:
            raise AssertionError("height index diverged from the canonical walk")
    boundary = chain.head.height - chain.confirmation_depth
    sra_systems = {}
    for block in chain.iter_canonical():
        if block.height > boundary:
            break
        for record in block.records:
            if record.kind is RecordKind.SRA:
                signed = SignedSRA.from_payload(record.payload)
                sra_systems[signed.sra_id] = signed.body.system_name
    for system in _QUERY_SYSTEMS:
        indexed_reports = {
            (e.height, e.index_in_block) for e in service.index.reports(system=system)
        }
        scanned_reports = set()
        for block in chain.iter_canonical():
            if block.height > boundary:
                break
            for position, record in enumerate(block.records):
                if record.kind is not RecordKind.DETAILED_REPORT:
                    continue
                report = DetailedReport.from_payload(record.payload)
                if sra_systems.get(report.sra_id) == system:
                    scanned_reports.add((block.height, position))
        if indexed_reports != scanned_reports:
            raise AssertionError("report index diverged from the full scan")


def _warm_start(ctx: Context, chain: Blockchain, index: ChainIndex, senders) -> Dict[str, Any]:
    """Persist the serving index at the current tip, grow the chain by a
    small delta, then time a warm start (load + delta replay) against a
    from-genesis rebuild, parity asserted first.  The delta scales with
    the chain like every other quick-mode workload, keeping the
    replayed fraction representative (2% of the chain in both modes)."""
    delta_blocks = 2 if ctx.quick else 8
    warm_dir = tempfile.mkdtemp(prefix="bench-query-index-")
    try:
        save_index(index, warm_dir)
        delta_tag = 10**9  # distinct namespace from _query_chain's counter
        for offset in range(delta_blocks):
            records = tuple(
                ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields(
                        "bench-query-delta", delta_tag + offset * 4 + i
                    ),
                    payload=b"d" * 48,
                    sender=senders[(offset + i) % len(senders)],
                )
                for i in range(4)
            )
            chain.add_block(
                Block.assemble(
                    chain.head.block_id,
                    chain.head.height + 1,
                    records,
                    chain.head.header.timestamp + 10.0,
                    100,
                    _MINER,
                )
            )
        warm = load_index(chain, warm_dir)
        cold = ChainIndex(chain)
        if warm is None or warm.blocks_indexed != delta_blocks:
            raise AssertionError("warm start did not replay exactly the delta")
        if warm.dump_state() != cold.dump_state():
            raise AssertionError("warm-started index diverged from the cold rebuild")
        # Sub-millisecond to millisecond builds under a large live heap:
        # time them GC-off (as timeit does), each sample a run of
        # back-to-back builds long enough to outlast scheduler jitter,
        # at a raised repeat floor.
        build_repeats = max(ctx.repeats, 7)
        gc.collect()
        gc.disable()
        try:
            warm_seconds = _per_call(build_repeats, lambda: load_index(chain, warm_dir))
            cold_seconds = _per_call(build_repeats, lambda: ChainIndex(chain))
        finally:
            gc.enable()
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    return {
        "warm_start_delta_blocks": delta_blocks,
        "warm_start_seconds": warm_seconds,
        "cold_rebuild_seconds": cold_seconds,
        "warm_start_speedup": cold_seconds / warm_seconds,
        "warm_start_identical_to_cold": True,
    }


def _query_serving(ctx: Context) -> Dict[str, Any]:
    """A QueryService over a mixed SRA/report/tx chain answers >= 10^4
    consumer queries; indexed sender counts are timed against the
    pinned full-chain scan, then the index's warm start against a cold
    rebuild.  Parity is asserted before any timing."""
    blocks = 120 if ctx.quick else 400
    count = 20_000 if ctx.quick else 120_000
    chain, senders, record_ids = _query_chain(blocks, 4)
    runtime = ContractRuntime()
    for index, sender in enumerate(senders):
        runtime.state.mint(sender, (index + 1) * 10**18)
    service = QueryService(chain=chain, runtime=runtime)
    rng = random.Random(307)
    _assert_index_matches_scan(service, chain, senders)

    workload = _query_workload(rng, count, senders, record_ids, blocks)
    latencies = np.empty(count, dtype=np.float64)
    query_started = time.perf_counter()
    serve = service.serve
    clock = time.perf_counter
    for position, request in enumerate(workload):
        tick = clock()
        response = serve(request)
        latencies[position] = clock() - tick
        if not response.ok:
            raise AssertionError(f"query failed mid-workload: {response.error}")
    query_seconds = time.perf_counter() - query_started

    # Head-to-head on the one query both paths implement identically:
    # sender transaction counts, indexed vs the pinned O(chain) scan.
    count_probe = [rng.choice(senders) for _ in range(400)]

    def _counts_scan():
        return [full_scan_transaction_count(chain, sender) for sender in count_probe]

    def _counts_index():
        sender_count = service.index.sender_count
        return [sender_count(sender) for sender in count_probe]

    if _counts_scan() != _counts_index():
        raise AssertionError("indexed counts diverged from the full scan")
    scan_seconds = _best_of(ctx.repeats, _counts_scan)
    index_seconds = _best_of(ctx.repeats, _counts_index)
    return {
        "blocks": blocks,
        "records": blocks * 4,
        "queries": count,
        "seconds": query_seconds,
        "queries_per_sec": count / query_seconds,
        "p50_us": float(np.percentile(latencies, 50) * 1e6),
        "p99_us": float(np.percentile(latencies, 99) * 1e6),
        "count_probe_lookups": len(count_probe),
        "scan_seconds": scan_seconds,
        "index_seconds": index_seconds,
        "speedup": scan_seconds / index_seconds,
        "index_rebuilds": service.index.rebuilds,
        "snapshot_hits": service.snapshots.hits,
        "identical_to_scan": True,
        **_warm_start(ctx, chain, service.index, senders),
    }


def _fleet_shard(ctx: Context) -> Dict[str, Any]:
    """A worker-process run asserted bit-identical to the serial jobs=1
    oracle before it is timed, then the 10k/100k sharded points."""
    spec = FleetSpec(
        full_nodes=10,
        light_nodes=190,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    blocks = 2

    def _run(jobs: int):
        with ShardedSimulator(spec, seed=93, jobs=jobs) as engine:
            engine.run_blocks(blocks)
            engine.finalize()
            return (engine.heads(), engine.light_heads(), engine.chain_bytes())

    serial_started = time.perf_counter()
    oracle_state = _run(1)
    serial_seconds = time.perf_counter() - serial_started
    entry: Dict[str, Any] = {
        "parity_nodes": spec.nodes,
        "parity_shards": spec.shards,
        "parity_blocks": blocks,
        "serial_seconds": serial_seconds,
    }
    if ctx.parallel:
        parallel_started = time.perf_counter()
        fanned_state = _run(ctx.workers)
        parallel_seconds = time.perf_counter() - parallel_started
        if fanned_state != oracle_state:
            raise AssertionError(
                "sharded fleet diverged between jobs=1 and worker processes"
            )
        entry.update(
            {
                "jobs": ctx.workers,
                "parallel_seconds": parallel_seconds,
                "speedup": serial_seconds / parallel_seconds,
                "speedup_gated": _speedup_gated(),
                "identical_to_serial": True,
            }
        )
    entry["points"] = {}
    for nodes, shards in ((1_000, 2),) if ctx.quick else ((10_000, 4), (100_000, 8)):
        point_started = time.perf_counter()
        point = _fleet_trial((93, nodes, "shard", blocks, shards))
        point_seconds = time.perf_counter() - point_started
        if not (point["full_converged"] and point["light_converged"]):
            raise AssertionError(f"{nodes}-node sharded fleet failed to converge")
        entry["points"][str(nodes)] = {
            "shards": shards,
            "full_nodes": point["full_nodes"],
            "light_nodes": point["light_nodes"],
            "blocks_mined": point["blocks_mined"],
            "messages_sent": point["messages_sent"],
            "bytes_sent": point["bytes_sent"],
            "events_processed": point["events_processed"],
            "seconds": point_seconds,
        }
    return entry


def _fleet_shard_rows(entry: Dict[str, Any]) -> List["Row"]:
    if "speedup" in entry:
        detail = f"parity held; {entry['speedup']:.2f}x at jobs={entry['jobs']}" + (
            "" if entry["speedup_gated"] else " (ungated: 1 core)"
        )
    else:
        detail = "serial oracle (parity gated in the bench lane)"
    rows = [
        (
            "sharded fleet (2-shard)",
            f"{entry['parity_nodes']} nodes / {entry['parity_shards']} shards",
            entry["serial_seconds"],
            detail,
        )
    ]
    for nodes, point in sorted(entry["points"].items(), key=lambda kv: int(kv[0])):
        rows.append(
            (
                f"sharded fleet ({point['shards']} shards)",
                f"{nodes} nodes ({point['full_nodes']}+{point['light_nodes']})",
                point["seconds"],
                f"{int(point['messages_sent'])} msgs, converged",
            )
        )
    return rows


# -- the lane as data ------------------------------------------------------

#: One table row: label, workload, seconds, headline.
Row = Tuple[str, str, float, str]

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


@dataclass(frozen=True)
class Gate:
    """A floor (``>=``/``>``) or ceiling (``<=``) on one probe field.

    ``only_if`` names a flag in the probe's entry that arms the gate;
    while it is false or absent (a 1-core host, ``--no-parallel``) the
    gate is not evaluated.  An armed gate fails on a missing or
    non-finite value.
    """

    probe: str
    field: str
    op: str
    bound: float
    only_if: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.probe}.{self.field} {self.op} {self.bound:g}"

    def failure(self, benchmarks: Dict[str, Any]) -> Optional[str]:
        """None when the gate holds or is unarmed, else why it failed."""
        entry = benchmarks.get(self.probe, {})
        if self.only_if and not entry.get(self.only_if):
            return None
        value = entry.get(self.field)
        if (
            isinstance(value, (int, float))
            and math.isfinite(value)
            and _OPS[self.op](value, self.bound)
        ):
            return None
        return f"{self.name} failed: got {value!r}"


@dataclass(frozen=True)
class Probe:
    """One benchmark: its JSON key, layer, runner, table rows, gates.

    ``gates`` holds ``(field, op, bound[, only_if])`` tuples on the
    probe's own entry; ``parallel`` probes need a process pool and are
    skipped when the suite runs without one.
    """

    name: str
    layer: str
    run: Callable[[Context], Dict[str, Any]]
    rows: Callable[[Dict[str, Any]], List[Row]]
    gates: Tuple[tuple, ...] = ()
    parallel: bool = False


_SPEEDUP_GATE = ("speedup", ">=", 1.0, "speedup_gated")

#: Run order matters: fleet_shard runs last because the big fleets
#: churn enough heap to skew the millisecond-scale probes before it.
PROBES: Tuple[Probe, ...] = (
    Probe("header_hash_cold", "chain", _header_hash_cold, lambda e: [(
        "header hash (cold)", f"{e['iterations']} headers", e["seconds"],
        f"{e['per_op_us']:.2f} us/hash")]),
    Probe("header_hash_cached", "chain", _header_hash_cached, lambda e: [(
        "header hash (cached)", f"{e['iterations']} reads", e["seconds"],
        f"{e['speedup_vs_cold']:.0f}x vs cold")],
        gates=(("speedup_vs_cold", ">", 5.0),)),
    Probe("nonce_search", "chain", _nonce_search, lambda e: [(
        "nonce search (midstate)", f"{e['attempts']} attempts",
        e["midstate_seconds"], f"{e['speedup']:.2f}x vs naive loop")],
        gates=(("speedup", ">=", 3.0),)),
    Probe("telemetry_overhead", "telemetry", _telemetry_overhead, lambda e: [(
        "telemetry off (mining)", f"{e['attempts']} attempts",
        e["disabled_seconds"],
        f"{e['disabled_ratio']:.3f}x vs pinned (ceiling {e['ceiling']:.2f}x)")],
        gates=(("disabled_ratio", "<=", TELEMETRY_OVERHEAD_CEILING),)),
    Probe("economics_batch", "economics", _economics_batch, lambda e: [(
        "economics batch (Eq. 7/10)", f"{e['population']} detectors",
        e["batch_seconds"],
        f"{e['speedup']:.1f}x vs scalar loop (bit-identical)")],
        gates=(("speedup", ">=", 5.0),)),
    Probe("ledger_validate", "chain", _ledger_validate, lambda e: [(
        "ledger validate (cached)",
        f"{e['validations']}x on {e['chain_blocks']} blocks",
        e["cached_seconds"], f"{e['speedup']:.1f}x vs full replay")],
        gates=(("speedup", ">=", 3.0),)),
    Probe("ecdsa", "crypto", _ecdsa, lambda e: [(
        "ecdsa sign / verify", "1 key, 1 digest", e["sign_us"] / 1e6,
        f"{e['sign_speedup']:.1f}x / {e['verify_speedup']:.1f}x vs ladder "
        "(bit-identical)")],
        gates=(("sign_speedup", ">=", 4.0), ("verify_speedup", ">=", 2.0))),
    Probe("merkle_build_256", "chain", _merkle_build, lambda e: [(
        "merkle build", f"{e['iterations']}x256 leaves", e["seconds"],
        f"{e['per_build_ms']:.2f} ms/build")]),
    Probe("gossip_round", "network", _gossip, lambda e: [(
        "gossip round", f"{e['nodes']} nodes", e["seconds"],
        f"{e['messages_sent']} msgs")]),
    Probe("mini_experiment", "experiments", _mini_experiment, lambda e: [(
        "mini experiment", f"{e['blocks']} blocks", e["seconds"],
        f"{e['blocks_per_sec']:.0f} blocks/s")]),
    Probe("store_replay", "store", _store_replay, lambda e: [(
        "store cold-reopen replay", f"{e['blocks']} blocks", e["reopen_seconds"],
        f"{e['replay_blocks_per_sec']:.0f} blocks/s "
        f"(append {e['append_blocks_per_sec']:.0f}/s)")]),
    Probe("parallel_fig5b", "experiments", _parallel_fig5b, lambda e: [(
        "parallel fig5b", f"{e['trials']} trials, jobs={e['jobs']}",
        e["parallel_seconds"], f"{e['speedup']:.2f}x vs serial (bit-identical)")],
        gates=(_SPEEDUP_GATE,), parallel=True),
    Probe("runner_scaling", "experiments", _runner_scaling, lambda e: [(
        "runner scaling (fork rate)",
        f"{e['trials']} ratios x {e['blocks']} blocks, jobs={e['jobs']}",
        e["parallel_seconds"], f"{e['speedup']:.2f}x vs serial (bit-identical)")],
        gates=(_SPEEDUP_GATE,), parallel=True),
    Probe("fleet_scale", "network", _fleet_scale, lambda e: [(
        "fleet gossip (inv-pull)", f"{e['nodes']} nodes x {e['blocks']} blocks",
        e["inv_seconds"], f"{e['messages_ratio']:.1f}x fewer msgs than flooding")],
        gates=(("messages_ratio", ">=", 5.0),)),
    Probe("query_serving", "query", _query_serving, lambda e: [
        ("query serving (indexed)", f"{e['queries']} queries on {e['blocks']} blocks",
         e["seconds"], f"{e['queries_per_sec']:.0f} q/s, p99 {e['p99_us']:.0f} us, "
         f"{e['speedup']:.1f}x vs full scan"),
        ("query index warm start",
         f"{e['warm_start_delta_blocks']}-block delta on {e['blocks']} blocks",
         e["warm_start_seconds"],
         f"{e['warm_start_speedup']:.1f}x vs cold rebuild (bit-identical)")],
        gates=(("speedup", ">=", 5.0), ("warm_start_speedup", ">=", 5.0))),
    Probe("fleet_shard", "shard", _fleet_shard, _fleet_shard_rows,
          gates=(_SPEEDUP_GATE,)),
)

#: Every floor and ceiling of the lane, in run order.
GATES: Tuple[Gate, ...] = tuple(
    Gate(probe.name, *gate) for probe in PROBES for gate in probe.gates
)


def check_gates(payload: Dict[str, Any]) -> List[str]:
    """Every failed gate of a suite result, as printable messages."""
    failures = (gate.failure(payload["benchmarks"]) for gate in GATES)
    return [failure for failure in failures if failure is not None]


def run_suite(
    quick: bool = False,
    repeats: int = 3,
    jobs: Optional[int] = None,
    parallel_probe: bool = True,
) -> Dict[str, Any]:
    """Run every probe; returns the JSON-ready result dict.

    ``quick`` shrinks workloads (CI smoke); ``jobs`` sets the worker
    count for the process-pool probes (default 2); ``parallel_probe``
    False skips the probes that need a pool.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    ctx = Context(quick, repeats, jobs if jobs and jobs > 1 else 2, parallel_probe)
    for probe in PROBES:
        if parallel_probe or not probe.parallel:
            ctx.results[probe.name] = probe.run(ctx)
    return {
        "suite": "substrate",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "benchmarks": ctx.results,
    }


def to_table(payload: Dict[str, Any]) -> ResultTable:
    """Render a suite result as a printable table."""
    table = ResultTable(
        title="Substrate microbenchmarks (best of %d)" % payload["repeats"],
        columns=["Benchmark", "Layer", "Workload", "Seconds", "Headline"],
    )
    for probe in PROBES:
        if probe.name not in payload["benchmarks"]:
            continue
        for label, workload, seconds, headline in probe.rows(
            payload["benchmarks"][probe.name]
        ):
            table.add_row(label, probe.layer, workload, seconds, headline)
    table.add_note("regenerate with scripts/run_bench.sh; see docs/PERFORMANCE.md")
    return table


def _repeat_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the suite, write the JSON, check every gate."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.substrate",
        description="time the substrate hot paths and record BENCH_substrate.json",
    )
    parser.add_argument(
        "--output", default="BENCH_substrate.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument(
        "--repeats", type=_repeat_count, default=3,
        help="runs per benchmark (at least 1); best is kept",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="workers for the parallel probe"
    )
    parser.add_argument(
        "--no-parallel", action="store_true", help="skip the parallel-runner probe"
    )
    args = parser.parse_args(argv)
    payload = run_suite(
        quick=args.quick,
        repeats=args.repeats,
        jobs=args.jobs,
        parallel_probe=not args.no_parallel,
    )
    to_table(payload).print()
    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    # allow_nan=False: NaN and Infinity are not JSON.
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
