"""``consumer_reads``: the consumer read path under an open loop in wall time.

One process, one thread.  Set-up builds a seeded chain of SRAs, detailed
reports and transactions (dummy signatures: reads never verify them)
through the public ``chain`` API, a ``QueryService`` over it and a
``ConsumerClient``.  The run then offers requests on a fixed schedule and
times each one from when it was due, while a writer appends a block every
``WRITE_INTERVAL_S`` on the same thread (writes beside reads).  Requests
follow ``MIX``, the repository's recorded consumer mix, in four phases:

* the nominal rate for 20% of a pass: ``read_p50_ms``/``read_p99_ms``,
  with every request over ``LIMIT_MS`` counted as failed;
* two and four times that rate, each for 5% of a pass: the capacity
  probe (``read_capacity_qps`` is the highest rate whose p99 meets
  ``LIMIT_MS`` with no growing backlog);
* a closed loop for the last 70%: ``throughput_per_s``, reads served per
  second back to back (the median over ``WINDOW_S`` windows), and each
  request kind's service-time p99.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from collections import defaultdict
from time import perf_counter

from common import Measured, percentile

BLOCKS = 400
RECORDS_PER_BLOCK = 4
#: The nominal offered rate and the latency limit a read must meet.  No
#: recorded consumer rate or service-level target exists for this
#: program; both values are assumed.
NOMINAL_QPS = 1000
LIMIT_MS = 250.0
#: The closed loop's rate is the median over windows of this length.
WINDOW_S = 0.5
#: Service times kept per request kind (bounded, so memory does not grow
#: with throughput).
SERVICE_SAMPLES = 20_000
WRITE_INTERVAL_S = 0.1
#: Request kinds and how many of each every 2,001 requests hold.  The
#: ``QueryService`` kinds follow the consumer mix recorded in the
#: repository's substrate benchmark (``_query_workload`` in
#: ``src/repro/experiments/bench_substrate.py``): 30% transaction counts,
#: 25% historical blocks, 15% transactions, 10% balances, 10% reports by
#: system and 10% reports by severity and detector.  ``deploy_check``, the
#: consumer's deploy-or-not decision (``ConsumerClient.should_deploy``),
#: has no recorded rate; one per 2,000 reads is assumed.  The seed orders
#: each window and picks the parameters; fixing the counts keeps the work
#: of a run from drifting with the seed.
MIX = (
    ("tx_count", 600),
    ("block_hist", 500),
    ("transaction", 300),
    ("balance", 200),
    ("reports_system", 200),
    ("reports_detector", 200),
    ("deploy_check", 1),
)
#: Requests generated for the closed loop, replayed in a cycle.
CLOSED_LOOP_PLAN = 50_000
SYSTEMS = ("camera", "doorlock", "thermostat", "router")
PROVIDERS = ("vendor-a", "vendor-b", "vendor-c")
DETECTORS = tuple(f"det-{index}" for index in range(8))
#: ``Severity`` values, as a report filter takes them.
SEVERITIES = ("high", "medium", "low")
#: Responses per kind checked against full-scan oracles after the run.
ORACLE_SAMPLE = 25


class _ChainWriter:
    """Seeded records, appended block by block through the public chain API."""

    def __init__(self, rng: random.Random) -> None:
        from repro.chain.block import Block
        from repro.chain.chain import Blockchain
        from repro.chain.consensus import make_genesis
        from repro.contracts.vm import ContractRuntime
        from repro.crypto.keys import Address

        self.rng = rng
        self.senders = [Address(bytes([index + 1]) * 20) for index in range(8)]
        self.miner = Address(b"\xee" * 20)
        self.chain = Blockchain(make_genesis(difficulty=100))
        self.runtime = ContractRuntime()
        for position, sender in enumerate(self.senders):
            self.runtime.state.mint(sender, (position + 1) * 10**18)
        self.releases = []  # (system, version) of every SRA written
        self.sra_ids = []
        self.record_ids = []
        self._tag = 0
        self._assemble = Block.assemble

    def records(self):
        from repro.chain.block import ChainRecord, RecordKind
        from repro.core.reports import DetailedReport
        from repro.core.sra import SRA, SignedSRA
        from repro.crypto.ecdsa import Signature
        from repro.crypto.hashing import hash_fields
        from repro.detection.descriptions import VulnerabilityDescription
        from repro.detection.vulnerability import Severity

        rng = self.rng
        dummy = Signature(1, 1)
        records = []
        for _ in range(RECORDS_PER_BLOCK):
            self._tag += 1
            tag = self._tag
            roll = rng.random()
            sender = rng.choice(self.senders)
            if roll < 0.2:
                provider, system = rng.choice(PROVIDERS), rng.choice(SYSTEMS)
                body = SRA(
                    provider_id=provider,
                    system_name=system,
                    system_version=f"v{tag}",
                    artifact_hash=hash_fields("perfbench-artifact", tag),
                    download_link=f"https://{provider}.example/{system}",
                    insurance_wei=10**18,
                    bounty_wei=10**17,
                )
                signed = SignedSRA(body=body, claimed_id=body.sra_id(), signature=dummy)
                self.sra_ids.append(signed.sra_id)
                self.releases.append((system, body.system_version))
                record = ChainRecord(
                    kind=RecordKind.SRA, record_id=signed.sra_id,
                    payload=signed.to_payload(), sender=sender,
                )
            elif roll < 0.45 and self.sra_ids:
                descriptions = tuple(
                    VulnerabilityDescription(
                        canonical=f"vuln-{tag}-{n}",
                        severity=Severity(rng.choice(SEVERITIES)),
                        category="overflow",
                        wording=f"finding {tag} ({n})",
                    )
                    for n in range(rng.randint(1, 3))
                )
                detector = rng.choice(DETECTORS)
                sra_id = rng.choice(self.sra_ids)
                report = DetailedReport(
                    sra_id=sra_id, detector_id=detector, wallet=sender,
                    descriptions=descriptions,
                    report_id=DetailedReport.compute_id(sra_id, detector, sender, descriptions),
                    signature=dummy,
                )
                record = ChainRecord(
                    kind=RecordKind.DETAILED_REPORT, record_id=report.report_id,
                    payload=report.to_payload(), sender=sender,
                )
            else:
                record = ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields("perfbench-tx", tag),
                    payload=rng.randbytes(48), sender=sender,
                )
            records.append(record)
        return tuple(records)

    def append(self, records) -> None:
        head = self.chain.head
        self.chain.add_block(
            self._assemble(
                head.block_id, head.height + 1, records,
                head.header.timestamp + 10.0, 100, self.miner,
            )
        )
        self.record_ids.extend(record.record_id for record in records)


def _requests(rng: random.Random, writer: _ChainWriter, count: int):
    """``count`` seeded (kind, call) pairs over the set-up chain."""
    from repro.query.service import QueryRequest

    window = [kind for kind, share in MIX for _ in range(share)]
    kinds = []
    while len(kinds) < count:
        rng.shuffle(window)
        kinds.extend(window)
    height = writer.chain.height
    confirmed = writer.releases[: max(1, len(writer.releases) * 3 // 4)]
    plan = []
    for kind in kinds[:count]:
        if kind == "tx_count":
            plan.append((kind, QueryRequest.get_transaction_count(rng.choice(writer.senders))))
        elif kind == "block_hist":
            plan.append((kind, QueryRequest.get_block(rng.randrange(height + 1))))
        elif kind == "transaction":
            plan.append((kind, QueryRequest.get_transaction(rng.choice(writer.record_ids))))
        elif kind == "balance":
            plan.append((kind, QueryRequest.get_balance(rng.choice(writer.senders))))
        elif kind == "reports_system":
            plan.append((kind, QueryRequest.get_reports(system=rng.choice(SYSTEMS))))
        elif kind == "reports_detector":
            plan.append((kind, QueryRequest.get_reports(
                severity=rng.choice(SEVERITIES), detector=rng.choice(DETECTORS),
            )))
        else:
            plan.append((kind, rng.choice(confirmed)))
    return plan


def _open_loop(rate, duration, plan, one, write_due):
    """Offer ``rate`` requests/s for ``duration`` s; time each from when it was due."""
    latencies = defaultdict(list)
    late = []
    count = int(rate * duration)
    phase_start = perf_counter()
    for index in range(count):
        due = phase_start + index / rate
        write_due(due)
        now = perf_counter()
        if now < due - 0.001:
            time.sleep(due - now - 0.001)
        while perf_counter() < due:
            pass
        begin = perf_counter()
        kind, request = next(plan)
        one(kind, request)
        latencies[kind].append((perf_counter() - due) * 1000.0)
        late.append((begin - due) * 1000.0)
    return {"rate": rate, "latencies": latencies, "late": late, "count": count}


def _closed_loop(duration, plan, one, write_due):
    """Serve back to back for ``duration`` s: rates per ``WINDOW_S`` window
    and each request's service time, by kind."""
    window_rates = []
    service = defaultdict(list)
    count = 0
    phase_start = perf_counter()
    window_start, window_served = phase_start, 0
    while True:
        now = perf_counter()
        if now - window_start >= WINDOW_S:
            window_rates.append(window_served / (now - window_start))
            window_start, window_served = now, 0
        if now >= phase_start + duration:
            if not window_rates and now > window_start:
                # A phase shorter than one window: its only, partial window.
                window_rates.append(window_served / (now - window_start))
            break
        write_due(now)
        kind, request = next(plan)
        begin = perf_counter()
        one(kind, request)
        if len(service[kind]) < SERVICE_SAMPLES:
            service[kind].append((perf_counter() - begin) * 1000.0)
        count += 1
        window_served += 1
    return {"rate": None, "window_rates": window_rates, "service": service, "count": count}


def _locations(result):
    return [(row.height, row.index_in_block) for row in result["rows"]]


class ConsumerReads:
    name = "consumer_reads"
    setup_repeats = 5
    repetitions = 3

    def __init__(self, seed: int, seconds: float, workdir, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        # (offered rate or None for the closed loop, share of the run)
        self.phases = (
            (NOMINAL_QPS, 0.2),
            (2 * NOMINAL_QPS, 0.05),
            (4 * NOMINAL_QPS, 0.05),
            (None, 0.7),
        )

    def setup(self):
        from repro.core.consumer import ConsumerClient
        from repro.query.service import QueryService

        rng = random.Random(self.seed)
        writer = _ChainWriter(random.Random(rng.randrange(2**31)))
        for _ in range(BLOCKS):
            writer.append(writer.records())
        # Twice what the schedule needs, in case phases overrun their time.
        writes = 2 * int(self.seconds / WRITE_INTERVAL_S) + 2
        pending_writes = [writer.records() for _ in range(writes)]
        offered = sum(
            int(rate * share * self.seconds) for rate, share in self.phases if rate
        )
        plan_rng = random.Random(rng.randrange(2**31))
        plan = _requests(plan_rng, writer, offered)
        closed_plan = _requests(plan_rng, writer, CLOSED_LOOP_PLAN)
        service = QueryService(chain=writer.chain, runtime=writer.runtime)
        client = ConsumerClient(writer.chain)
        # Fill the index and snapshot caches before timing.
        service.serve_batch([request for kind, request in plan[:64] if kind != "deploy_check"])
        return {
            "writer": writer,
            "pending_writes": pending_writes,
            "plan": plan,
            "closed_plan": closed_plan,
            "service": service,
            "client": client,
            "oracle_rng": random.Random(rng.randrange(2**31)),
        }

    def teardown(self, state) -> None:
        pass

    def run(self, state, tracer=None) -> Measured:
        writer = state["writer"]
        plan = iter(state["plan"])
        closed_plan = itertools.cycle(state["closed_plan"])
        pending_writes = iter(state["pending_writes"])
        serve = state["service"].serve
        should_deploy = state["client"].should_deploy
        failures = []
        request_ids = itertools.count()

        def one(kind, request):
            if tracer is not None:
                tracer.current_item = f"read-{next(request_ids)}"
            if kind == "deploy_check":
                should_deploy(*request)
                return
            response = serve(request)
            if not response.ok:
                failures.append(f"{kind}: {response.error}")

        if tracer is not None:
            tracer.start()
        started = perf_counter()
        next_write = started + WRITE_INTERVAL_S

        def write_due(now):
            nonlocal next_write
            while next_write <= now:
                writer.append(next(pending_writes))
                next_write += WRITE_INTERVAL_S

        phases = []
        for rate, share in self.phases:
            duration = share * self.seconds
            if rate is None:
                phases.append(_closed_loop(duration, closed_plan, one, write_due))
            else:
                phases.append(_open_loop(rate, duration, plan, one, write_due))
        wall = perf_counter() - started
        if tracer is not None:
            tracer.stop()
            tracer.current_item = None

        nominal = phases[0]
        nominal_all = [value for values in nominal["latencies"].values() for value in values]
        over_limit = sum(1 for value in nominal_all if value > LIMIT_MS)
        capacity = 0.0
        for phase in phases:
            if phase["rate"] is None:
                continue
            values = [value for values in phase["latencies"].values() for value in values]
            # No growing backlog: the generator ends no later than LIMIT_MS behind.
            if percentile(values, 99) <= LIMIT_MS and phase["late"][-1] <= LIMIT_MS:
                capacity = float(phase["rate"])
        throughput = statistics.median(phases[-1]["window_rates"])
        attempted = sum(phase["count"] for phase in phases)
        problems = [f"{len(failures)} reads answered ok=False, first: {failures[0]}"] if failures else []
        problems.extend(self._check_oracles(state))
        # Per kind: service time in the closed loop, where even the rare
        # deploy checks number in the hundreds.
        layer = {
            f"query.{kind}.p99_ms": percentile(values, 99)
            for kind, values in phases[-1]["service"].items()
        }
        layer["reads.generator_late_p99_ms"] = percentile(nominal["late"], 99)
        service = state["service"]
        layer["query.blocks_indexed"] = service.index.blocks_indexed
        lookups = service.snapshots.hits + service.snapshots.misses
        layer["query.snapshot.hit_ratio"] = service.snapshots.hits / lookups if lookups else 0.0
        return Measured(
            wall_s=wall,
            units=attempted,
            throughput_per_s=throughput,
            attempted=attempted,
            failed=len(failures) + over_limit,
            failure_base=(
                "reads offered in all phases; failed = ok=False responses + "
                f"nominal-rate reads over the {LIMIT_MS:g} ms limit"
            ),
            problems=problems,
            named={
                "read_p50_ms": (percentile(nominal_all, 50), "ms"),
                "read_p99_ms": (percentile(nominal_all, 99), "ms"),
                "read_samples": (len(nominal_all), "count"),
                "nominal_qps": (float(NOMINAL_QPS), "1/s"),
                "read_capacity_qps": (capacity, "1/s"),
                "closed_loop_reads_per_s": (throughput, "1/s"),
                "blocks_written": (writer.chain.height - BLOCKS, "count"),
            },
            layer=layer,
        )

    def _check_oracles(self, state):
        """A seeded sample of responses against full-scan oracles."""
        writer = state["writer"]
        chain = writer.chain
        service = state["service"]
        client = state["client"]
        rng = state["oracle_rng"]
        blocks = list(chain.iter_canonical())
        boundary = chain.height - chain.confirmation_depth
        locations = {}
        sent_by = defaultdict(int)
        for block in blocks:
            for position, record in enumerate(block.records):
                locations[record.record_id] = (block.height, position)
                sent_by[record.sender] += 1
        problems = []

        def expect(kind, request, predicate):
            response = service.serve(request)
            if not response.ok or not predicate(response.result):
                problems.append(f"{kind} {request.params} disagrees with the full scan")

        from repro.chain.block import RecordKind
        from repro.core.reports import DetailedReport
        from repro.core.sra import SignedSRA
        from repro.query.service import QueryRequest

        sra_release = {}
        reported = set()
        # (system, detector, severities, location) of every confirmed report
        # whose release is known, in chain order.
        confirmed_reports = []
        for block in blocks:
            if block.height > boundary:
                break
            for position, record in enumerate(block.records):
                if record.kind is RecordKind.SRA:
                    body = SignedSRA.from_payload(record.payload).body
                    sra_release[record.record_id] = (body.system_name, body.system_version)
                elif record.kind is RecordKind.DETAILED_REPORT:
                    report = DetailedReport.from_payload(record.payload)
                    reported.add(report.sra_id)
                    release = sra_release.get(report.sra_id)
                    if release is not None:
                        confirmed_reports.append((
                            release[0], report.detector_id,
                            {d.severity.value for d in report.descriptions},
                            (block.height, position),
                        ))

        expect("head", QueryRequest.head(),
               lambda r: r == {"number": chain.height, "hash": "0x" + chain.head.block_id.hex()})
        for _ in range(ORACLE_SAMPLE):
            height = rng.randrange(chain.height + 1)
            expect("block_hist", QueryRequest.get_block(height),
                   lambda r, h=height: r["hash"] == "0x" + blocks[h].block_id.hex())
            record_id = rng.choice(writer.record_ids)
            expect("transaction", QueryRequest.get_transaction(record_id),
                   lambda r, i=record_id: (r["blockNumber"], r["transactionIndex"]) == locations[i])
            sender = rng.choice(writer.senders)
            expect("tx_count", QueryRequest.get_transaction_count(sender),
                   lambda r, s=sender: r == sent_by[s])
            expect("balance", QueryRequest.get_balance(sender),
                   lambda r, s=sender: r == writer.runtime.state.balance(s))
            system = rng.choice(SYSTEMS)
            expect("reports_system", QueryRequest.get_reports(system=system, limit=1024),
                   lambda r, s=system: _locations(r) == [
                       where for found, _, _, where in confirmed_reports if found == s
                   ][:1024])
            severity, detector = rng.choice(SEVERITIES), rng.choice(DETECTORS)
            expect("reports_detector",
                   QueryRequest.get_reports(severity=severity, detector=detector, limit=1024),
                   lambda r, v=severity, d=detector: _locations(r) == [
                       where for _, found, severities, where in confirmed_reports
                       if found == d and v in severities
                   ][:1024])
            release = rng.choice(writer.releases)
            sra_ids = {sra_id for sra_id, found in sra_release.items() if found == release}
            expected = bool(sra_ids) and not (sra_ids & reported)
            if client.should_deploy(*release) != expected:
                problems.append(f"deploy_check {release} disagrees with the full scan")
        return problems
