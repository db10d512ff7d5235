"""Network nodes: the common base for providers, detectors, consumers.

A node owns a handler table keyed by :class:`MessageKind`; the gossip
layer calls :meth:`deliver` when a message arrives.  Subclasses in
:mod:`repro.core` implement the stakeholder behaviours of §IV-A.

Nodes also carry a *lifecycle*: :meth:`crash` models a process dying
(it stops delivering, relaying, and originating traffic) and
:meth:`restart` brings it back.  Durable state — keys, handler tables,
and whatever subclasses persist (a provider's chain replica survives
on disk) — is retained across a crash; only in-flight messages are
lost.  Subclasses hook :meth:`on_restarted` to recover, e.g. a chain
replica resyncs from its peers (§V-C fault tolerance).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.crypto.keys import KeyPair
from repro.network.messages import Message, MessageKind

__all__ = ["Node", "MessageHandler"]

MessageHandler = Callable[["Node", Message], None]


class Node:
    """A named overlay participant with a keypair and message handlers."""

    #: Light nodes set this: in inv-pull gossip their payload pulls are
    #: served the block *header* instead of the full body (§V-B's
    #: "lightweight detector" storing headers, not the chain).
    wants_headers_only = False

    def __init__(self, name: str, keys: Optional[KeyPair] = None) -> None:
        self.name = name
        self._keys = keys
        self._handlers: Dict[MessageKind, List[MessageHandler]] = {}
        self.network: Optional["GossipNetworkApi"] = None
        self.delivered_count = 0
        #: Lifecycle: a crashed node neither receives nor sends.
        self.crashed = False
        self.crash_count = 0
        self.restart_count = 0
        #: Sends attempted while down (simulation callbacks firing on a
        #: dead process are silently dropped, as the real process would).
        self.sends_while_crashed = 0
        #: Observers of crash/restart transitions (e.g. a query service
        #: pre-warming its index after the node's recovery completes).
        self._lifecycle_listeners: List[Callable[[str], None]] = []

    @property
    def keys(self) -> KeyPair:
        """The node's keypair, derived from its name on first use.

        Derivation is a real secp256k1 scalar multiplication (the first
        in a process also builds the G table), so a 100k-node fleet must
        not pay it per node at construction — only the replicas that
        actually sign (mine) ever touch it.
        """
        if self._keys is None:
            self._keys = KeyPair.from_seed(self.name.encode())
        return self._keys

    @keys.setter
    def keys(self, value: Optional[KeyPair]) -> None:
        self._keys = value

    @property
    def address(self):
        """The node's account address."""
        return self.keys.address

    @property
    def alive(self) -> bool:
        """True unless the node is currently crashed."""
        return not self.crashed

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        """Kill the process: all delivery and sending stops."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self._notify_lifecycle("crash")

    def restart(self) -> None:
        """Bring the process back up and run recovery hooks."""
        if not self.crashed:
            return
        self.crashed = False
        self.restart_count += 1
        self.on_restarted()
        self._notify_lifecycle("restart")

    def on_restarted(self) -> None:
        """Recovery hook after a restart (subclasses resync here)."""

    def subscribe_lifecycle(self, listener: Callable[[str], None]) -> None:
        """Observe crash/restart transitions.

        ``listener`` is called with ``"crash"`` after the node goes
        down and ``"restart"`` after it is back up *and* its recovery
        hooks (:meth:`on_restarted`) have run — so a restart listener
        sees the recovered state, not the mid-recovery one.
        """
        self._lifecycle_listeners.append(listener)

    def _notify_lifecycle(self, event: str) -> None:
        for listener in list(self._lifecycle_listeners):
            listener(event)

    # -- messaging ----------------------------------------------------------

    def on(self, kind: MessageKind, handler: MessageHandler) -> None:
        """Register a handler for a message kind (multiple allowed)."""
        self._handlers.setdefault(kind, []).append(handler)

    def deliver(self, message: Message) -> None:
        """Called by the gossip layer when a message reaches this node.

        A crashed node delivers nothing: the counter is not incremented
        and no handler runs (the message is simply lost, like a packet
        arriving at a dead process).
        """
        if self.crashed:
            return
        self.delivered_count += 1
        for handler in self._handlers.get(message.kind, []):
            handler(self, message)

    def broadcast(
        self, kind: MessageKind, payload, salt: Optional[int] = None
    ) -> Optional[Message]:
        """Gossip a payload to the whole overlay.

        ``salt`` distinguishes retransmissions: a salted envelope gets a
        fresh dedup key so the flood propagates again to nodes that
        missed the original (receivers stay idempotent at the
        application layer).  Returns None if the node is crashed.
        """
        if self.crashed:
            self.sends_while_crashed += 1
            return None
        if self.network is None:
            raise RuntimeError(f"node {self.name} is not attached to a network")
        message = Message.wrap(kind, payload, origin=self.name, salt=salt)
        self.network.broadcast(self.name, message)
        return message

    def send(self, destination: str, kind: MessageKind, payload) -> Optional[Message]:
        """Send a payload point-to-point (dropped if crashed)."""
        if self.crashed:
            self.sends_while_crashed += 1
            return None
        if self.network is None:
            raise RuntimeError(f"node {self.name} is not attached to a network")
        message = Message.wrap(kind, payload, origin=self.name)
        self.network.unicast(self.name, destination, message)
        return message


class GossipNetworkApi:
    """Interface nodes use to reach the overlay (implemented by gossip)."""

    def broadcast(self, origin: str, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def unicast(
        self, origin: str, destination: str, message: Message
    ) -> None:  # pragma: no cover
        raise NotImplementedError
