"""``lifecycle``: the paper's whole pipeline as message traffic.

Five providers at the paper's hashpower shares, eight detectors with 1-8
threads and two consumers run as gossip nodes (``DecentralizedDeployment``)
with ``DEFAULT_LATENCY`` on every link and store-backed provider replicas.
Releases with 0-5 flaws are announced on a fixed simulated-time schedule,
and each consumer sends ``CONSUMER_QUERY`` on its own schedule (an open
loop in simulated time).  The last provider crashes a third of the way in
and restarts from its store at two thirds; queries due meanwhile still go
out, failing over to a live provider.

``--seed`` makes the inputs: the releases (names, images, which flaws,
and which release gets how many), and what each consumer asks and whom.
The deployment's own draws (mining, link delays, detector speed) use a
fixed seed, so every seed gives the same amount of work and runs differ
by their inputs and the machine, not by a longer or shorter chain.
"""

from __future__ import annotations

import random
import shutil
from collections import Counter
from time import perf_counter

from common import Measured

#: Simulated seconds between release announcements, and between one
#: consumer's queries.  No recorded release or query rate exists for this
#: program; both are assumed.
RELEASE_INTERVAL = 60.0
QUERY_INTERVAL = 20.0
#: Simulated seconds of mining after the last release, before checking.
DRAIN = 1800.0
#: Releases per second of a pass's time (about 1 release/s on 2 cores).
RELEASES_PER_SECOND = 1.2
CONSUMERS = ("consumer-1", "consumer-2")
#: Seed of the deployment's mining, link-delay and detector draws.
DEPLOYMENT_SEED = 0
#: Blocks between store snapshots, as in the repository's own store
#: benchmark.  The default, 512, is longer than a pass's chain, so the
#: snapshot and rename path would never run.
SNAPSHOT_INTERVAL = 64


class Lifecycle:
    name = "lifecycle"
    setup_repeats = 11
    repetitions = 3

    def __init__(self, seed: int, seconds: float, workdir, trace: bool) -> None:
        self.seed = seed
        self.releases = max(3, round(seconds * RELEASES_PER_SECOND))
        self.workdir = workdir
        self._attempt = 0

    def setup(self):
        from repro.chain.pow import PAPER_HASHPOWER_SHARES
        from repro.core.stakeholders import DecentralizedDeployment
        from repro.detection import build_detector_fleet, build_system
        from repro.network.latency import DEFAULT_LATENCY
        from repro.shard import FleetSpec

        self._attempt += 1
        store_dir = self.workdir / f"lifecycle-{self._attempt}"
        rng = random.Random(self.seed)
        # Flaw counts cycle through 0-5 in a seeded order: the seed picks
        # which release has how many, while the total work stays fixed.
        flaws = [index % 6 for index in range(self.releases)]
        rng.shuffle(flaws)
        systems = [
            build_system(
                f"lc{self.seed}-{index}",
                vulnerability_count=count,
                rng=random.Random(rng.randrange(2**31)),
            )
            for index, count in enumerate(flaws)
        ]
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(seed=DEPLOYMENT_SEED),
            consumers=CONSUMERS,
            latency=DEFAULT_LATENCY,
            seed=DEPLOYMENT_SEED,
            # Open for the whole run: late reports are judged, not refused.
            detection_window=10 * (self.releases * RELEASE_INTERVAL + DRAIN),
            spec=FleetSpec(
                full_nodes=len(PAPER_HASHPOWER_SHARES),
                store_dir=str(store_dir),
                store_snapshot_interval=SNAPSHOT_INTERVAL,
            ),
        )
        providers = list(deployment.providers)
        return {
            "deployment": deployment,
            "systems": systems,
            "providers": providers,
            # The first provider is the deployment's confirmation observer.
            "victim": providers[-1],
            "query_rng": random.Random(rng.randrange(2**31)),
            "store_dir": store_dir,
        }

    def teardown(self, state) -> None:
        shutil.rmtree(state["store_dir"], ignore_errors=True)

    def run(self, state, tracer=None) -> Measured:
        from repro.core.consumer import ConsumerClient
        from repro.faults.invariants import InvariantChecker

        deployment = state["deployment"]
        systems = state["systems"]
        providers = state["providers"]
        victim = state["victim"]
        rng = state["query_rng"]
        simulator = deployment.simulator
        announced = []
        sent = {name: 0 for name in CONSUMERS}

        def send_query(consumer_name: str) -> None:
            if not announced:
                return
            system = announced[rng.randrange(len(announced))]
            start = rng.randrange(len(providers))
            # A client fails over past providers that refuse connections.
            for offset in range(len(providers)):
                target = deployment.providers[providers[(start + offset) % len(providers)]]
                if not target.crashed:
                    break
            deployment.consumers[consumer_name].query(
                target.name, system.name, system.version
            )
            sent[consumer_name] += 1

        horizon = self.releases * RELEASE_INTERVAL
        # Offsets keep sends clear of the release boundaries, where the
        # crash and restart happen, so no query is in flight at a crash.
        for position, consumer_name in enumerate(CONSUMERS):
            due = 7.0 + 6.0 * position
            while due < horizon:
                simulator.schedule_at(due, send_query, consumer_name)
                due += QUERY_INTERVAL

        crash_at, restart_at = self.releases // 3, (2 * self.releases) // 3
        if tracer is not None:
            tracer.watch(deployment.network)
            tracer.start()
        started = perf_counter()
        for index, system in enumerate(systems):
            if index == crash_at:
                deployment.crash(victim)
            if index == restart_at:
                deployment.restart(victim)
            announcer = providers[index % len(providers)]
            if deployment.providers[announcer].crashed:
                announcer = providers[0]
            if tracer is not None:
                tracer.current_item = system.name
            deployment.announce(announcer, system)
            if tracer is not None:
                tracer.current_item = None
            announced.append(system)
            deployment.advance_for(RELEASE_INTERVAL)
        deployment.advance_for(DRAIN)
        observer = deployment.providers[providers[0]]
        for _ in range(20):
            deployment.simulator.advance()
            if deployment.converged() and not self._unconfirmed(deployment, observer):
                break
            deployment.advance_for(RELEASE_INTERVAL)
        deployment.simulator.advance()
        wall = perf_counter() - started
        if tracer is not None:
            tracer.stop()

        # -- output checks (outside the timed window) ------------------------
        problems = []
        answered = {name: len(deployment.consumers[name].responses) for name in CONSUMERS}
        unanswered = sum(sent.values()) - sum(answered.values())
        oracle_client = ConsumerClient(observer.chain)
        oracle = {
            (system.name, system.version): oracle_client.lookup(system.name, system.version)
            for system in systems
        }
        for name in CONSUMERS:
            for reference in deployment.consumers[name].responses:
                if reference is None:
                    continue  # asked before the SRA was confirmed
                final = oracle[(reference.system_name, reference.system_version)]
                if final is None or not set(reference.vulnerabilities) <= set(final.vulnerabilities):
                    problems.append(
                        f"{name}: answer for {reference.system_name} is not a "
                        "prefix of the final chain's reference"
                    )
        # A final round: every consumer asks about every release.
        for name in CONSUMERS:
            for system in systems:
                deployment.consumers[name].query(providers[0], system.name, system.version)
        deployment.simulator.advance()
        for name in CONSUMERS:
            # Replies may overtake each other on the wire: compare as multisets.
            final_round = Counter(deployment.consumers[name].responses[answered[name]:])
            expected = Counter(oracle[(system.name, system.version)] for system in systems)
            if final_round != expected:
                problems.append(f"{name}: final answers differ from ConsumerClient over the observer's chain")
        if not deployment.converged():
            problems.append("alive replicas did not converge")
        # Wei conserved, no record twice on a chain, insurance accounted.
        problems.extend(str(v) for v in InvariantChecker.for_deployment(deployment).run_all().violations)
        paid = Counter(
            (event.contract, event.payload["vulnerability"])
            for event in deployment.runtime.events_named("BountyPaid")
        )
        if any(count > 1 for count in paid.values()):
            problems.append("a vulnerability was paid more than once")
        earned = sum(deployment.detector_balance(name) for name in deployment.detectors)
        if earned != sum(contract.total_paid_wei() for contract in deployment.contracts.values()):
            problems.append("detector earnings differ from the contracts' payouts")

        unconfirmed_sras = sum(
            1 for system in systems if oracle[(system.name, system.version)] is None
        )
        published = [
            report_id for detector in deployment.detectors.values()
            for report_id in detector.detailed_ids
        ]
        unconfirmed_reports = len(self._unconfirmed(deployment, observer))
        attempted = self.releases + sum(sent.values()) + len(published)
        failed = unconfirmed_sras + unanswered + unconfirmed_reports
        fingerprint = (
            observer.head_id().hex(),
            sorted((name, deployment.detector_balance(name)) for name in deployment.detectors),
            simulator.events_processed,
        )
        return Measured(
            wall_s=wall,
            units=self.releases,
            throughput_per_s=self.releases / wall,
            attempted=attempted,
            failed=failed,
            failure_base=(
                "releases + consumer queries sent + detailed reports published; "
                "failed = unconfirmed SRAs + unanswered queries + unconfirmed detailed reports"
            ),
            problems=problems,
            named={
                "releases_per_s": (self.releases / wall, "1/s"),
                "consumer_queries": (sum(sent.values()), "count"),
                "detailed_reports": (len(published), "count"),
                "blocks": (observer.chain.height, "count"),
            },
            fingerprint=fingerprint,
            layer={
                "store.bytes_on_disk": sum(
                    entry.stat().st_size
                    for entry in state["store_dir"].rglob("*")
                    if entry.is_file()
                ),
            },
        )

    @staticmethod
    def _unconfirmed(deployment, observer):
        return [
            report_id
            for detector in deployment.detectors.values()
            for report_id in detector.detailed_ids
            if not observer.chain.record_is_confirmed(report_id)
        ]
