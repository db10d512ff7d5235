"""Distributed chain replicas — Phase #3 with real replication.

The economics experiments use a logical shared chain (honest majority,
no partitions ⇒ all replicas converge, see
:mod:`repro.chain.consensus`).  This module implements the replica
nodes themselves (the fleet engine that drives them is
:class:`repro.shard.ShardedSimulator`): every provider is a
:class:`ReplicaNode` holding its *own*
:class:`~repro.chain.chain.Blockchain` copy, mining on its own head,
validating every received block (structure + semantic record hook),
buffering out-of-order arrivals, and reorging when a heavier branch
shows up.  This is the machinery behind the paper's claim that "a small
amount of compromised IoT providers will not outplay the whole
SmartCrowd platform" (§V-C) — and the tests drive it through
partitions, byzantine miners, and fork races.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.chain.block import Block, BlockHeader, ChainRecord
from repro.chain.chain import Blockchain, ChainError
from repro.chain.validation import BlockValidator
from repro.core.lightclient import HeaderChain
from repro.crypto.keys import KeyPair
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.store import ChainStore, HeaderStore

__all__ = ["LightReplicaNode", "ReplicaNode"]

#: Semantic record check a replica applies before accepting a block.
RecordCheck = Callable[[ChainRecord], bool]


def _interleave(full_names: List[str], light_names: List[str]) -> List[str]:
    """Ring order for the fleet: light nodes spread between full nodes.

    Keeps ring-based topologies from forming long light-only arcs, and
    is deterministic (no rng draw), so a fleet without light replicas
    keeps its full nodes in fleet order.
    """
    if not light_names:
        return list(full_names)
    if not full_names:
        return list(light_names)
    per_full = max(1, len(light_names) // len(full_names))
    merged: List[str] = []
    cursor = 0
    for name in full_names:
        merged.append(name)
        take = light_names[cursor : cursor + per_full]
        merged.extend(take)
        cursor += len(take)
    merged.extend(light_names[cursor:])
    return merged


def heaviest_peer(network, name: str) -> Optional[Node]:
    """The reachable, alive neighbor of ``name`` with the heaviest chain.

    Neighbors that are unknown, crashed or chainless are skipped; on a
    tie the first neighbor seen wins.  None without a network.
    """
    if network is None or not hasattr(network, "neighbors"):
        return None
    best: Optional[Node] = None
    for peer_name in network.neighbors(name):
        try:
            peer = network.node(peer_name)
        except KeyError:
            continue
        if getattr(peer, "crashed", False):
            continue
        peer_chain = getattr(peer, "chain", None)
        if peer_chain is None:
            continue
        if best is None or peer_chain.total_difficulty() > best.chain.total_difficulty():
            best = peer
    return best


class ReplicaNode(Node):
    """A provider node holding a full chain replica.

    Receives blocks over gossip, validates them against its own copy,
    buffers orphans whose parent has not arrived yet, and serves as the
    mining context (new blocks extend *this* replica's head — two
    replicas with divergent views naturally produce forks).

    The replica also supports the crash/restart lifecycle: the chain is
    durable (it survives a crash, like a database on disk), and on
    restart the node performs a headers-first resync from its best
    reachable peer — the chain-is-the-reference recovery the paper's
    fault-tolerance claim rests on (§V-C).
    """

    def __init__(
        self,
        name: str,
        genesis: Block,
        record_check: Optional[RecordCheck] = None,
        confirmation_depth: int = 6,
        keys: Optional[KeyPair] = None,
        store: Optional[ChainStore] = None,
    ) -> None:
        super().__init__(name, keys)
        self.chain = Blockchain(genesis, confirmation_depth=confirmation_depth)
        self.validator = BlockValidator(
            record_validator=record_check, require_pow=False
        )
        #: Orphans keyed by the missing parent id.
        self._orphans: Dict[bytes, List[Block]] = {}
        self.blocks_accepted = 0
        self.blocks_rejected = 0
        self.resyncs_performed = 0
        self.blocks_resynced = 0
        self._resyncing = False
        #: Optional durable block log.  With a store attached, every
        #: accepted block is logged and a restart rebuilds the chain
        #: from disk before resyncing only the missing suffix (RAM is
        #: assumed lost; without a store the in-memory chain plays the
        #: durable-database role it always did).
        self.store = store
        self._genesis = genesis
        self.store_recoveries = 0
        if store is not None:
            store.ensure_genesis(genesis)
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block_message)

    # -- receive path -----------------------------------------------------

    def _on_block_message(self, _node: Node, message: Message) -> None:
        if isinstance(message.payload, Block):
            self.receive_block(message.payload)

    def receive_block(self, block: Block) -> None:
        """Validate and adopt a block; buffer it if the parent is unknown."""
        if block.block_id in self.chain:
            return
        if block.header.prev_block_id not in self.chain:
            self._orphans.setdefault(block.header.prev_block_id, []).append(block)
            # A block more than one ahead of our head means we missed
            # at least one announcement for good (burst loss, crash of
            # every relayer).  Waiting would strand us forever, so pull
            # the gap from the heaviest reachable peer instead — the
            # same headers-first walk used after a restart.
            if block.height > self.chain.height + 1 and not self._resyncing:
                peer = heaviest_peer(self.network, self.name)
                if (
                    peer is not None
                    and peer.chain.total_difficulty() > self.chain.total_difficulty()
                ):
                    self._resyncing = True
                    try:
                        self.resync_from(peer)
                    finally:
                        self._resyncing = False
            return
        result = self.validator.validate(block, self.chain)
        if not result.ok:
            self.blocks_rejected += 1
            return
        old_head_id = self.chain.head.block_id
        try:
            head_moved = self.chain.add_block(block)
        except ChainError:
            self.blocks_rejected += 1
            return
        self.blocks_accepted += 1
        if self.store is not None:
            self.store.append(block)
            self.store.maybe_snapshot(self.chain)
        if head_moved and block.header.prev_block_id != old_head_id:
            # Reorg: the old branch was abandoned.  Records that only
            # existed there must go back to the mempool (subclasses that
            # mine hook this to resubmit).
            stranded = self.chain.orphaned_records(old_head_id)
            if stranded:
                self._on_records_orphaned(stranded)
        self._adopt_orphans(block.block_id)

    def _adopt_orphans(self, parent_id: bytes) -> None:
        """Recursively attach buffered children of a newly known parent."""
        children = self._orphans.pop(parent_id, [])
        for child in children:
            self.receive_block(child)

    def _on_records_orphaned(self, records: List[ChainRecord]) -> None:
        """Hook: records fell off the canonical chain in a reorg."""

    # -- crash recovery ----------------------------------------------------

    def on_restarted(self) -> None:
        """Recover the chain, then resync the missing suffix from peers.

        With a store attached, the process's RAM is assumed gone: the
        store is reopened (running checksum verification and torn-tail
        truncation against whatever happened on disk while the node was
        down) and the chain is rebuilt purely from the log.  The peer
        resync then fetches only the suffix the store lost — headers
        walked back from the peer's tip stop at the first block the
        recovered chain already holds.
        """
        if self.store is not None:
            self._recover_from_store()
        peer = heaviest_peer(self.network, self.name)
        if peer is not None:
            self.resync_from(peer)

    def _recover_from_store(self) -> None:
        """Reopen the store and swap in the chain it can vouch for."""
        assert self.store is not None
        self.store.reopen()
        chain = self.store.load_chain(
            confirmation_depth=self.chain.confirmation_depth
        )
        if chain is None:
            # Store emptied entirely (e.g. log lost): restart from
            # genesis and re-seed the log; peers refill the rest.
            chain = Blockchain(
                self._genesis,
                confirmation_depth=self.chain.confirmation_depth,
            )
            self.store.ensure_genesis(self._genesis)
        self.chain = chain
        self._orphans = {}
        self.store_recoveries += 1

    def resync_from(self, peer: "ReplicaNode") -> int:
        """Adopt the peer's canonical chain, headers first.

        Walks the peer's headers back from its tip until hitting a
        block this replica already stores (the sync locator), then
        fetches and validates the missing bodies oldest-first.  A
        heavier adopted branch triggers the normal reorg path, so
        stranded records are resubmitted via
        :meth:`_on_records_orphaned`.  Returns the number of blocks
        fetched.
        """
        peer_chain = peer.chain
        if peer_chain.head.block_id in self.chain:
            return 0  # already have the peer's tip: nothing to fetch
        missing: List[Block] = []
        cursor: Optional[Block] = peer_chain.head
        while cursor is not None and cursor.block_id not in self.chain:
            missing.append(cursor)
            cursor = peer_chain.get_block(cursor.header.prev_block_id)
        fetched = 0
        for block in reversed(missing):
            self.receive_block(block)
            fetched += 1
        self.resyncs_performed += 1
        self.blocks_resynced += fetched
        return fetched

    # -- mine path ---------------------------------------------------------

    def assemble_block(
        self,
        timestamp: float,
        records: tuple = (),
        difficulty: Optional[int] = None,
    ) -> Block:
        """Assemble a block on this replica's current head."""
        head = self.chain.head
        return Block.assemble(
            prev_block_id=head.block_id,
            height=head.height + 1,
            records=records,
            timestamp=max(timestamp, head.header.timestamp),
            difficulty=difficulty if difficulty is not None else head.header.difficulty,
            miner=self.address,
        )

    def head_id(self) -> bytes:
        """This replica's canonical head id."""
        return self.chain.head.block_id



class LightReplicaNode(Node):
    """A headers-only fleet participant (§V-B's lightweight detector).

    Stores a :class:`~repro.core.lightclient.HeaderChain` instead of a
    full replica: block announcements arrive over gossip (inv-pull
    serves it just the 120-byte header; flooding delivers the full
    block, of which only the header is kept).  A header that does not
    extend the tip — a gap from loss, a fork, or a full-node reorg —
    triggers a headers-first resync from its configured full-node
    servers, the SPV-wallet recovery path.
    """

    wants_headers_only = True

    def __init__(
        self,
        name: str,
        genesis: Block,
        keys: Optional[KeyPair] = None,
        store: Optional[HeaderStore] = None,
    ) -> None:
        super().__init__(name, keys)
        self.headers = HeaderChain()
        self.headers.accept(genesis.header)
        self.headers_accepted = 0
        self.header_resyncs = 0
        #: Full nodes this light client can pull headers from (SPV
        #: servers); the heaviest alive one is used on each resync.
        self._servers: List[ReplicaNode] = []
        #: Optional durable header log; mirrors the in-memory header
        #: chain through its accept/truncate hooks.
        self.store = store
        self._genesis_header = genesis.header
        self.store_recoveries = 0
        if store is not None:
            store.ensure_genesis(genesis.header)
            if len(store) > 1:
                # Adopting a pre-populated store: trust the log.
                self.headers = store.load_headers()
            self._attach_store_hooks()
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block_message)

    def _attach_store_hooks(self) -> None:
        assert self.store is not None
        self.headers.on_accept = self.store.append
        self.headers.on_truncate = self.store.truncate

    def set_servers(self, servers: List[ReplicaNode]) -> None:
        """Configure the full nodes this client may resync from."""
        self._servers = list(servers)

    def _on_block_message(self, _node: Node, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, BlockHeader):
            header = payload
        else:
            header = getattr(payload, "header", None)
            if not isinstance(header, BlockHeader):
                return
        self.receive_header(header)

    def receive_header(self, header: BlockHeader) -> None:
        """Accept a gossiped header; resync on any gap or divergence."""
        if self.headers.accept(header):
            self.headers_accepted += 1
            return
        if self.headers.header(header.header_hash()) is not None:
            return  # duplicate of something already stored
        self.resync()

    def resync(self) -> int:
        """Headers-first pull from the heaviest alive server."""
        server = self._best_server()
        if server is None:
            return 0
        self.header_resyncs += 1
        return self.headers.sync_from(server.chain)

    def _best_server(self) -> Optional[ReplicaNode]:
        best: Optional[ReplicaNode] = None
        for server in self._servers:
            if server.crashed:
                continue
            if (
                best is None
                or server.chain.total_difficulty() > best.chain.total_difficulty()
            ):
                best = server
        return best

    def on_restarted(self) -> None:
        """Recover after a crash: local header log first, then servers."""
        if self.store is not None:
            self.store.reopen()
            self.headers = self.store.load_headers()
            if len(self.headers) == 0:
                self.headers.accept(self._genesis_header)
                self.store.ensure_genesis(self._genesis_header)
            self._attach_store_hooks()
            self.store_recoveries += 1
        self.resync()

    def tip_id(self) -> bytes:
        """The id of this client's best header (genesis-rooted)."""
        tip = self.headers.tip
        assert tip is not None  # genesis is accepted in __init__
        return tip.header_hash()
