"""Data set, network set-up and closed-loop drivers for the three workloads.

Everything the engine receives is generated here from the run's seed: the
Appendix A data set (accounts plus a few thousand invoices, loaded with a
handful of bulk ``INSERT ... SELECT`` contract calls), every contract
argument the clients submit, and every key a reader asks for.  The same
seed gives the same inputs.

The driver is single-threaded.  It steps the network's discrete-event
scheduler one event at a time and reacts to ``tx_status`` notifications,
so every millisecond it measures is this process's own work: simulated
network delay costs no wall time.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bench.contracts_appendix_a import ALL_CONTRACTS, SCHEMA_SQL
from repro.core.network import BlockchainNetwork
from repro.node.backend import FLOW_EXECUTE_ORDER, FLOW_ORDER_EXECUTE
from repro.node.notifications import CHANNEL_BLOCKS, CHANNEL_TX_STATUS

ORGS = ("org1", "org2", "org3")
ACCOUNTS_PER_ORG = 4
INVOICES_PER_ACCOUNT = 3
DOUBLINGS = 6            # 36 base invoices * 2**6 = 2304 invoices

#: One account and its three base invoices per call.
SEED_ACCOUNT_CONTRACT = """
CREATE FUNCTION seed_account(account INT, org_name TEXT, bal FLOAT,
                             first_id INT, a1 FLOAT, a2 FLOAT, a3 FLOAT)
RETURNS VOID AS $$
BEGIN
    INSERT INTO accounts (acc_id, org, balance)
    VALUES (account, org_name, bal);
    INSERT INTO invoices (invoice_id, acc_id, org, amount, status)
    VALUES (first_id, account, org_name, a1, 'new'),
           (first_id + 1, account, org_name, a2, 'new'),
           (first_id + 2, account, org_name, a3, 'new');
END $$ LANGUAGE plpgsql
"""

#: Doubles the invoice table: every row is copied ``off`` ids higher with
#: ``bump`` added to its amount.  The index-backed predicate lets the
#: call commit under execute-order-in-parallel's require-index rule.
BULK_DOUBLE_CONTRACT = """
CREATE FUNCTION bulk_double(off INT, bump FLOAT) RETURNS VOID AS $$
BEGIN
    INSERT INTO invoices (invoice_id, acc_id, org, amount, status)
    SELECT invoice_id + off, acc_id, org, amount + bump, status
    FROM invoices WHERE invoice_id >= 1;
END $$ LANGUAGE plpgsql
"""

POINT_SQL = ("SELECT invoice_id, acc_id, org, amount, status "
             "FROM invoices WHERE invoice_id = $1")
ASOF_SQL = "SELECT count(*), sum(amount) FROM invoices WHERE org = $1"
#: Accounts with no invoice of org1: the accounts of org2 and org3.  The
#: engine returns org1's own accounts instead (NOT IN over a subquery
#: keeps the rows that ARE in the subquery), whatever the seed.
NOT_IN_SQL = ("SELECT acc_id FROM accounts WHERE acc_id NOT IN "
              "(SELECT acc_id FROM accounts WHERE org = 'org1') "
              "ORDER BY acc_id")


@dataclass(frozen=True)
class Spec:
    """How one workload drives the network."""

    name: str
    flow: str
    consensus: str
    orderers_per_org: int
    block_size: int
    block_timeout: float
    contract: str           # "simple_insert" or "complex_join"
    window: int             # transactions each client keeps outstanding
    lockstep: bool          # clients refill only once a whole round ends
    point_reads: int        # per read probe, after the fresh read
    asof_reads: int         # per read probe
    not_in_reads: int       # per read probe
    #: Committed tx/s on the reference machine (README).  A run of
    #: ``seconds`` commits ``seconds * nominal_tps`` transactions, whatever
    #: its speed, so the tables the reads scan and the memory the run
    #: holds do not follow the commit rate.
    nominal_tps: float

    def window_per_client(self, seconds: float, clients: int) -> int:
        """Transactions each client submits in the timed window: whole
        windows (whole rounds in lockstep), at least one."""
        windows = math.ceil(seconds * self.nominal_tps
                            / (clients * self.window))
        return max(windows, 1) * self.window


SPECS = {
    # Figure 5 path: full blocks, signatures dominate, SQL does little.
    "oe-simple": Spec("oe-simple", FLOW_ORDER_EXECUTE, "kafka", 1,
                      block_size=30, block_timeout=0.5,
                      contract="simple_insert", window=20, lockstep=False,
                      point_reads=12, asof_reads=10, not_in_reads=0,
                      nominal_tps=35.0),
    # Every peer executes the join at submit; PBFT with f=1 needs four
    # orderers, so two per organization.
    "eo-join": Spec("eo-join", FLOW_EXECUTE_ORDER, "pbft", 2,
                    block_size=12, block_timeout=0.5,
                    contract="complex_join", window=8, lockstep=False,
                    point_reads=12, asof_reads=12, not_in_reads=0,
                    nominal_tps=11.0),
    # A trickle of inserts in small timeout-cut blocks, read hard after
    # every block.
    "htap-reads": Spec("htap-reads", FLOW_ORDER_EXECUTE, "kafka", 1,
                       block_size=100, block_timeout=0.2,
                       contract="simple_insert", window=3, lockstep=True,
                       point_reads=16, asof_reads=8, not_in_reads=1,
                       nominal_tps=32.0),
}


# ---------------------------------------------------------------------------
# The data set
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Rows the benchmark generated, kept apart from the engine."""

    accounts: Dict[int, Tuple[str, float]] = field(default_factory=dict)
    # invoice_id -> (acc_id, org, amount, status)
    invoices: Dict[int, Tuple[int, str, float, str]] = \
        field(default_factory=dict)
    # invoice_id -> block height that committed it
    invoice_height: Dict[int, int] = field(default_factory=dict)
    seed_calls: List[Tuple[str, tuple]] = field(default_factory=list)
    bulk_calls: List[Tuple[str, tuple]] = field(default_factory=list)

    def accounts_of(self, org: str) -> List[int]:
        return sorted(a for a, (o, _) in self.accounts.items() if o == org)

    def aggregate_at(self, org: str, height: int) -> Tuple[int, float]:
        """count(*), sum(amount) over ``org``'s invoices committed at or
        below ``height``."""
        amounts = [row[2] for inv, row in self.invoices.items()
                   if row[1] == org
                   and self.invoice_height.get(inv, math.inf) <= height]
        return len(amounts), math.fsum(amounts)


def make_dataset(seed: int) -> Dataset:
    rng = random.Random(seed)
    data = Dataset()
    invoice_id = 1
    for index in range(len(ORGS) * ACCOUNTS_PER_ORG):
        account = index + 1
        org = ORGS[index // ACCOUNTS_PER_ORG]
        balance = round(rng.uniform(100, 1000), 2)
        amounts = [round(rng.uniform(10, 500), 2)
                   for _ in range(INVOICES_PER_ACCOUNT)]
        data.accounts[account] = (org, balance)
        for offset, amount in enumerate(amounts):
            data.invoices[invoice_id + offset] = (account, org, amount,
                                                  "new")
        data.seed_calls.append(("seed_account", (account, org, balance,
                                                 invoice_id, *amounts)))
        invoice_id += INVOICES_PER_ACCOUNT
    rows = len(data.invoices)
    for _ in range(DOUBLINGS):
        bump = round(rng.uniform(0.01, 5.0), 2)
        for inv, (account, org, amount, status) in list(
                data.invoices.items()):
            data.invoices[inv + rows] = (account, org, amount + bump, status)
        data.bulk_calls.append(("bulk_double", (rows, bump)))
        rows *= 2
    return data


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build_network(spec: Spec, data: Dataset):
    """A fresh 3-organization network (one peer each) holding ``data``.
    The simulated link latencies keep the network's fixed default seed,
    so the order of events, and with it the shape of every block, does
    not change with the data seed."""
    net = BlockchainNetwork(
        organizations=list(ORGS), flow=spec.flow, consensus=spec.consensus,
        block_size=spec.block_size, block_timeout=spec.block_timeout,
        orderers_per_org=spec.orderers_per_org, schema_sql=SCHEMA_SQL,
        contracts=ALL_CONTRACTS + [SEED_ACCOUNT_CONTRACT,
                                   BULK_DOUBLE_CONTRACT])
    clients = [net.register_client(f"client-{org}", org) for org in ORGS]
    submitted = []
    for i, (procedure, args) in enumerate(data.seed_calls):
        submitted.append(clients[i % len(clients)].invoke(procedure, *args))
    _wait_committed(net, submitted)
    for procedure, args in data.bulk_calls:
        submitted.append(clients[0].invoke(procedure, *args))
        _wait_committed(net, submitted[-1:])
    # Merge the loader's small per-block column chunks now, as a bulk
    # load would, instead of at whichever block of the timed window
    # reaches the replica's compaction cadence first: AS OF reads cost
    # less after it, and runs of different speed would cross it at
    # different points.
    for node in net.nodes:
        node.db.columnstore.compact()
    height = net.primary_node.db.committed_height
    for inv in data.invoices:
        data.invoice_height[inv] = height
    return net, clients, submitted


def _wait_committed(net, tx_ids: List[str], limit: float = 60.0) -> None:
    """Run the network until every peer has recorded an outcome for each
    of ``tx_ids`` and finished finalizing it."""
    deadline = net.scheduler.now + limit
    while net.scheduler.now < deadline:
        net.advance(0.05)
        if all((node.ledger.entry(tx_id) or {}).get("status")
               not in (None, "pending")
               for node in net.nodes for tx_id in tx_ids):
            for node in net.nodes:
                node.db.drain_commits()
            return
    raise RuntimeError("set-up transactions did not commit in time")


# ---------------------------------------------------------------------------
# Closed-loop driver
# ---------------------------------------------------------------------------

@dataclass
class Tx:
    tx_id: str
    client: int
    invoked_at: float
    invoice: Optional[Tuple[int, Tuple[int, str, float, str]]] = None
    summary: Optional[Tuple[str, str]] = None   # (summary_id, org)


class Driver:
    """Closed-loop clients (one per organization) plus one reader."""

    def __init__(self, spec: Spec, net, clients, data: Dataset, seed: int,
                 setup_txs: List[str]):
        self.spec = spec
        self.setup_txs = setup_txs
        self.net = net
        self.clients = clients
        self.data = data
        self.scheduler = net.scheduler
        self.reader = net.primary_node
        self.rngs = [random.Random(seed * 1009 + k)
                     for k in range(len(clients))]
        self.read_rng = random.Random(seed * 7919 + 1)
        self.issued = [0] * len(clients)
        self.inflight: Dict[str, Tx] = {}
        self.by_id: Dict[str, Tx] = {}
        self.finished: List[Tuple[Tx, Dict]] = []
        self.submitted: List[Tx] = []
        self.outcomes: Dict[str, Dict] = {}
        self.summaries: Dict[str, str] = {}     # summary_id -> org
        self.asof_seen: Set[Tuple[str, int]] = set()   # (org, height)
        self.asof_issued = 0
        self.committed_keys: List[int] = sorted(data.invoices)
        self.top_block = 0
        self.block_seen = False
        self.recording = False
        self.commit_ms: List[float] = []
        self.fresh_ms: List[float] = []
        self.point_ms: List[float] = []
        self.asof_ms: List[float] = []
        self.tx_attempted = self.tx_failed = 0
        self.read_attempted = self.read_failed = 0
        for k, client in enumerate(clients):
            client.peer.notifications.listen(
                CHANNEL_TX_STATUS,
                lambda event, k=k: self._on_status(k, event.payload))
        self.reader.notifications.listen(CHANNEL_TX_STATUS,
                                         self._on_reader_status)
        self.reader.notifications.listen(CHANNEL_BLOCKS, self._on_block)

    # -- notifications (run inside the peers' block processing) ----------

    def _on_status(self, k: int, payload: Dict) -> None:
        tx = self.inflight.get(payload["tx_id"])
        if tx is not None and tx.client == k:
            if self.recording:
                self.commit_ms.append(
                    (time.perf_counter() - tx.invoked_at) * 1e3)
            del self.inflight[tx.tx_id]
            self.finished.append((tx, payload))

    def _on_reader_status(self, event) -> None:
        """The reading peer announces every transaction of each block it
        commits; that places each new invoice at its height."""
        payload = event.payload
        tx = self.by_id.get(payload["tx_id"])
        if tx is not None and tx.invoice is not None and \
                payload["status"] == "committed":
            invoice_id, row = tx.invoice
            self.data.invoices[invoice_id] = row
            self.data.invoice_height[invoice_id] = payload["block"]
            self.committed_keys.append(invoice_id)

    def _on_block(self, event) -> None:
        self.block_seen = True

    # -- transactions ------------------------------------------------------

    def submit(self, k: int) -> None:
        client = self.clients[k]
        org = client.identity.organization
        rng = self.rngs[k]
        i = self.issued[k]
        self.issued[k] += 1
        if self.spec.contract == "simple_insert":
            invoice_id = 1_000_000 * (k + 1) + i
            account = rng.choice(self.data.accounts_of(org))
            amount = round(rng.uniform(10, 500), 2)
            row = (account, org, amount, "new")
            started = time.perf_counter()
            tx_id = client.invoke("simple_insert", invoice_id, account, org,
                                  amount)
            tx = Tx(tx_id, k, started, invoice=(invoice_id, row))
        else:
            summary_id = f"s-{k}-{i}"
            started = time.perf_counter()
            tx_id = client.invoke("complex_join", summary_id, org)
            tx = Tx(tx_id, k, started, summary=(summary_id, org))
        self.inflight[tx_id] = tx
        self.by_id[tx_id] = tx
        self.submitted.append(tx)
        self.tx_attempted += 1

    def _settle_finished(self) -> List[int]:
        """Book finished transactions; returns the clients to refill."""
        refill = []
        for tx, payload in self.finished:
            self.outcomes[tx.tx_id] = payload
            self.top_block = max(self.top_block, payload["block"])
            if payload["status"] != "committed":
                self.tx_failed += 1
            elif tx.summary is not None:
                self.summaries[tx.summary[0]] = tx.summary[1]
            refill.append(tx.client)
        self.finished.clear()
        return refill

    def _caught_up(self) -> bool:
        return all(node.db.committed_height >= self.top_block
                   for node in self.net.nodes)

    def _step(self) -> None:
        if not self.scheduler.step():
            raise RuntimeError("event queue drained with work in flight")

    # -- reads -------------------------------------------------------------

    def _timed(self, samples: List[float], fn, *args):
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:   # noqa: BLE001 - an erroring read is a failed op
            self.read_failed += 1
            return None
        elapsed = (time.perf_counter() - started) * 1e3
        if self.recording:
            samples.append(elapsed)
        return result

    def _point_read(self, samples: List[float]) -> None:
        self.read_attempted += 1
        key = self.read_rng.choice(self.committed_keys)
        result = self._timed(samples, self.reader.query, POINT_SQL,
                             "@system", (key,))
        if result is None:
            return
        account, org, amount, status = self.data.invoices[key]
        want = [(key, account, org, amount, status)]
        if [tuple(r) for r in result.rows] != want:
            self.read_failed += 1
            if self.recording:
                samples.pop()

    def _asof_read(self) -> None:
        self.read_attempted += 1
        self.asof_issued += 1
        height = self.reader.db.committed_height
        if self.asof_seen and self.asof_issued % 4 == 0:
            # Every fourth read re-asks an earlier (org, height): the
            # answer must not move.  A fixed 3:1 mix keeps p50 inside the
            # current-height population.
            org, height = self.read_rng.choice(sorted(self.asof_seen))
        else:
            org = self.read_rng.choice(ORGS)
        result = self._timed(self.asof_ms, self.reader.query_as_of,
                             ASOF_SQL, height, "@system", (org,))
        if result is None:
            return
        count, total = result.rows[0]
        want_count, want_total = self.data.aggregate_at(org, height)
        if count != want_count or not math.isclose(
                total or 0.0, want_total, rel_tol=1e-9, abs_tol=1e-6):
            self.read_failed += 1
            if self.recording:
                self.asof_ms.pop()
            return
        self.asof_seen.add((org, height))

    def _not_in_read(self) -> None:
        self.read_attempted += 1
        want = [(a,) for a in sorted(self.data.accounts)
                if self.data.accounts[a][0] != "org1"]
        try:
            rows = self.reader.query(NOT_IN_SQL).rows
        except Exception:   # noqa: BLE001 - an erroring read is a failed op
            self.read_failed += 1
            return
        if [tuple(r) for r in rows] != want:
            self.read_failed += 1

    def read_probe(self) -> None:
        """The reads issued after a block (or a round) commits.  The first
        point read is the fresh one: it waits at the commit barrier for the
        block's finalization and pays for statistics the new height made
        stale."""
        spec = self.spec
        self.block_seen = False
        # All peers share this process, but on a deployment the other
        # peers' background finalization runs on other machines: let it
        # end first so it cannot hold the interpreter lock during reads.
        for node in self.net.nodes:
            if node is not self.reader:
                node.db.drain_commits()
        self._point_read(self.fresh_ms)
        for _ in range(spec.asof_reads):
            self._asof_read()
        for _ in range(spec.point_reads):
            self._point_read(self.point_ms)
        for _ in range(spec.not_in_reads):
            self._not_in_read()

    # -- the loops -----------------------------------------------------------

    def warm_up(self) -> None:
        """One transaction per client and one read probe, off the clock,
        so plan caches and compiled expressions are warm."""
        for k in range(len(self.clients)):
            self.submit(k)
        while self.inflight or not self._caught_up():
            self._step()
            self._settle_finished()
        for node in self.net.nodes:
            node.db.drain_commits()
        self.read_probe()

    def run(self, seconds: float) -> Tuple[float, int]:
        """Drive the closed loop until every client has submitted its
        share of the window (``Spec.window_per_client``), then let every
        peer commit everything and drain its pipelined finalization.
        Returns (wall seconds, committed transactions)."""
        spec = self.spec
        # Warm-up work is set-up: its transactions must have committed
        # like the data set's, and only the timed window's operations
        # count as attempted.
        self.setup_txs.extend(tx.tx_id for tx in self.submitted)
        self.submitted = []
        self.tx_attempted = self.tx_failed = 0
        self.read_attempted = self.read_failed = 0
        left = [spec.window_per_client(seconds, len(self.clients))] \
            * len(self.clients)

        def submit_next(k: int) -> None:
            if left[k]:
                left[k] -= 1
                self.submit(k)

        self.recording = True
        started = time.perf_counter()
        for k in range(len(self.clients)):
            for _ in range(spec.window):
                submit_next(k)
        while True:
            self._step()
            refill = self._settle_finished()
            if spec.lockstep:
                # One round: every client's window commits everywhere,
                # then one read probe, then the next round.
                if self.inflight or not self._caught_up():
                    continue
                self.read_probe()
                if not any(left):
                    break
                for k in range(len(self.clients)):
                    for _ in range(spec.window):
                        submit_next(k)
                continue
            for k in refill:
                submit_next(k)
            if self.block_seen:
                self.read_probe()
            if not any(left) and not self.inflight and self._caught_up():
                break
        for node in self.net.nodes:
            node.db.drain_commits()
        elapsed = time.perf_counter() - started
        self.recording = False
        committed = sum(
            1 for tx in self.submitted
            if self.outcomes[tx.tx_id]["status"] == "committed")
        return elapsed, committed


def setup(spec: Spec, seed: int, repeats: int = 1):
    """Build, seed and warm up a network ``repeats`` times; returns the
    last driver and every set-up's duration in seconds."""
    durations = []
    driver = None
    for _ in range(repeats):
        driver = None
        gc.collect()
        started = time.perf_counter()
        data = make_dataset(seed)
        net, clients, setup_txs = build_network(spec, data)
        driver = Driver(spec, net, clients, data, seed, setup_txs)
        driver.warm_up()
        durations.append(time.perf_counter() - started)
    return driver, durations
