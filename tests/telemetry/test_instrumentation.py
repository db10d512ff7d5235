"""End-to-end instrumentation: each layer writes the metrics it claims.

The determinism contract is tested too: enabling telemetry must not
change any seeded trajectory, because instrumentation never draws from
the RNGs or the wall clock inside simulation logic.
"""

import random

from repro.chain.block import GENESIS_PARENT, Block
from repro.chain.pow import MiningModel, mine_block
from repro.chain.retarget import RetargetingMiner
from repro.contracts.contract import Contract, ContractError
from repro.contracts.vm import ContractRuntime
from repro.contracts.state import BURN_ADDRESS
from repro.crypto.keys import KeyPair
from repro.network.simulator import Simulator
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.units import to_wei


class TestSimulator:
    def test_dispatch_metrics(self):
        telemetry = Telemetry()
        simulator = Simulator(telemetry=telemetry)
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        simulator.advance()
        assert telemetry.counter("sim.events_processed").value == 3
        assert telemetry.histogram("sim.dispatch_seconds").count == 3
        assert telemetry.gauge("sim.queue_depth").value == 0

    def test_disabled_costs_nothing_visible(self):
        simulator = Simulator()
        assert simulator.telemetry is NULL_TELEMETRY
        simulator.schedule(1.0, lambda: None)
        assert simulator.advance() == 1


class TestMining:
    def test_model_histogram_and_winner_counters(self):
        telemetry = Telemetry()
        model = MiningModel(
            {"a": 2.0, "b": 1.0}, difficulty=30,
            rng=random.Random(0), telemetry=telemetry,
        )
        for _ in range(20):
            model.next_block()
        assert telemetry.histogram("mining.interval_seconds").count == 20
        wins = sum(
            telemetry.counter("mining.blocks", winner=name).value
            for name in ("a", "b")
        )
        assert wins == 20

    def test_model_trajectory_unchanged_by_telemetry(self):
        plain = MiningModel({"a": 2.0, "b": 1.0}, difficulty=30,
                            rng=random.Random(7))
        instrumented = MiningModel({"a": 2.0, "b": 1.0}, difficulty=30,
                                   rng=random.Random(7),
                                   telemetry=Telemetry())
        for _ in range(50):
            assert plain.next_block() == instrumented.next_block()

    def test_retargeting_miner_metrics(self):
        telemetry = Telemetry()
        miner = RetargetingMiner(
            {"a": 1.0}, initial_difficulty=2048,
            rng=random.Random(1), telemetry=telemetry,
        )
        miner.run_blocks(10)
        assert telemetry.histogram("retarget.interval_seconds").count == 10
        assert telemetry.histogram("retarget.difficulty").count == 10
        assert telemetry.counter("retarget.blocks", winner="a").value == 10

    @staticmethod
    def _unmined(difficulty):
        miner = KeyPair.from_seed(b"instrumented-miner").address
        return Block.assemble(GENESIS_PARENT, 1, (), 1.0, difficulty, miner)

    def test_exhausted_search_counted(self):
        telemetry = Telemetry()
        assert mine_block(self._unmined(1 << 255), max_attempts=50,
                          telemetry=telemetry) is None
        assert telemetry.counter("pow.searches", outcome="exhausted").value == 1
        assert telemetry.counter("pow.nonce_attempts").value == 50

    def test_found_search_counted(self):
        telemetry = Telemetry()
        mined = mine_block(self._unmined(64), max_attempts=100_000,
                           telemetry=telemetry)
        assert mined is not None
        attempts = telemetry.counter("pow.nonce_attempts").value
        assert attempts == mined.header.nonce + 1
        assert telemetry.counter("pow.searches", outcome="found").value == 1
        histogram = telemetry.histogram("pow.attempts_per_search")
        assert histogram.count == 1 and histogram.max == attempts


class _Bounty(Contract):
    """Pays out half its escrow per claim; reverts on demand."""

    def on_deploy(self, ctx):
        return None

    def claim(self, ctx, recipient):
        runtime = ctx.runtime
        runtime.contract_pay(
            self.address, recipient,
            runtime.contract_balance(self.address) // 2,
        )
        return True

    def explode(self, ctx, recipient):
        ctx.runtime.contract_pay(
            self.address, recipient,
            ctx.runtime.contract_balance(self.address),
        )
        raise ContractError("boom")


class TestContracts:
    def _runtime(self):
        telemetry = Telemetry()
        runtime = ContractRuntime(telemetry=telemetry)
        owner = KeyPair.from_seed(b"telemetry-owner").address
        runtime.state.mint(owner, to_wei(100))
        return runtime, telemetry, owner

    def test_calls_gas_and_deposits_counted(self):
        runtime, telemetry, owner = self._runtime()
        receipt = runtime.deploy(_Bounty(), owner, value_wei=to_wei(10))
        assert receipt.success
        assert telemetry.counter(
            "contract.calls", operation="deploy_sra", outcome="ok"
        ).value == 1
        assert telemetry.counter("contract.deposit_wei").value == to_wei(10)
        assert telemetry.counter("contract.gas_wei").value == receipt.fee_wei
        assert telemetry.histogram(
            "contract.gas_used", operation="deploy_sra"
        ).count == 1
        assert len(telemetry.trace.by_kind("contract.deploy")) == 1

    def test_payouts_committed_only_on_success(self):
        runtime, telemetry, owner = self._runtime()
        receipt = runtime.deploy(_Bounty(), owner, value_wei=to_wei(10))
        contract = receipt.contract
        ok = runtime.call(contract, "claim", owner, 0, None, owner)
        assert ok.success
        assert telemetry.counter("contract.payout_wei").value == to_wei(5)
        assert telemetry.counter("contract.payouts").value == 1

        # A reverted call's payouts never happened: counters unchanged.
        boom = runtime.call(contract, "explode", owner, 0, None, owner)
        assert not boom.success
        assert telemetry.counter("contract.payout_wei").value == to_wei(5)
        assert telemetry.counter("contract.payouts").value == 1
        assert telemetry.counter(
            "contract.calls", operation="explode", outcome="reverted"
        ).value == 1
        assert len(telemetry.trace.by_kind("contract.revert")) == 1

    def test_no_gas_outcome_counted(self):
        runtime, telemetry, _ = self._runtime()
        broke = KeyPair.from_seed(b"telemetry-broke").address
        receipt = runtime.deploy(_Bounty(), broke)
        assert not receipt.success
        assert telemetry.counter(
            "contract.calls", operation="deploy_sra", outcome="no_gas"
        ).value == 1
        # Burned nothing: the sender could not even pay gas.
        assert runtime.state.balance(BURN_ADDRESS) == 0
