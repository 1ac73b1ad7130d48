"""Output checks, computed apart from the engine.

Each check compares what the peers hold with what the benchmark generated
and with the outcomes the peers announced.  A check returns a list of
problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import sqlite3
from typing import List

from repro.chain.block import GENESIS_PREV_HASH

INVOICE_SQL = ("SELECT invoice_id, acc_id, org, amount, status "
               "FROM invoices ORDER BY invoice_id")
SUMMARY_SQL = "SELECT summary_id, org, total, cnt FROM summaries"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_ledgers(driver) -> List[str]:
    """Every peer's pgLedger shows every set-up and workload transaction
    with the outcome its client was told (committed for set-up)."""
    problems = []
    want = {tx_id: "committed" for tx_id in driver.setup_txs}
    for tx in driver.submitted:
        outcome = driver.outcomes.get(tx.tx_id)
        want[tx.tx_id] = outcome["status"] if outcome else "notified"
    for node in driver.net.nodes:
        for tx_id, status in want.items():
            entry = node.ledger.entry(tx_id)
            got = entry["status"] if entry else None
            if got != status:
                problems.append(f"{node.name}: ledger has {tx_id} as "
                                f"{got!r}, client saw {status!r}")
                break
    return problems


def check_chain(driver) -> List[str]:
    """Replicas agree, and every block's prev_hash names its predecessor."""
    problems = []
    try:
        driver.net.assert_consistent()
    except AssertionError as exc:
        problems.append(f"replicas diverged: {exc}")
    for node in driver.net.nodes:
        previous = None
        for block in node.blockstore:
            want = GENESIS_PREV_HASH if previous is None \
                else previous.block_hash
            if block.prev_hash != want:
                problems.append(f"{node.name}: block {block.number} does "
                                f"not link to its predecessor")
                break
            previous = block
    return problems


def check_invoices(driver) -> List[str]:
    """``invoices`` on every peer equals the generated rows."""
    data = driver.data
    want = [(inv, *row) for inv, row in sorted(data.invoices.items())]
    problems = []
    for node in driver.net.nodes:
        got = [tuple(r) for r in node.query(INVOICE_SQL).rows]
        if len(got) != len(want) or any(
                g[:3] != w[:3] or g[4] != w[4] or not _close(g[3], w[3])
                for g, w in zip(got, want)):
            problems.append(f"{node.name}: invoices differ from the "
                            f"generated rows ({len(got)} vs {len(want)})")
    return problems


def check_summaries(driver) -> List[str]:
    """Each ``summaries`` row equals the join's sum and count, computed by
    stdlib sqlite3 over the generated rows."""
    data = driver.data
    lite = sqlite3.connect(":memory:")
    try:
        lite.execute("CREATE TABLE accounts (acc_id INTEGER, org TEXT)")
        lite.execute("CREATE TABLE invoices (acc_id INTEGER, amount REAL)")
        lite.executemany("INSERT INTO accounts VALUES (?, ?)",
                         [(a, org) for a, (org, _) in data.accounts.items()])
        lite.executemany("INSERT INTO invoices VALUES (?, ?)",
                         [(row[0], row[2]) for row in data.invoices.values()])
        expected = {}
        for org in {org for org, _ in data.accounts.values()}:
            expected[org] = lite.execute(
                "SELECT sum(i.amount), count(*) FROM accounts a "
                "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = ?",
                (org,)).fetchone()
    finally:
        lite.close()
    problems = []
    for node in driver.net.nodes:
        rows = {r[0]: r for r in node.query(SUMMARY_SQL).rows}
        if set(rows) != set(driver.summaries):
            problems.append(f"{node.name}: {len(rows)} summaries, "
                            f"{len(driver.summaries)} committed")
            continue
        for summary_id, org in driver.summaries.items():
            _, got_org, total, count = rows[summary_id]
            want_total, want_count = expected[org]
            if got_org != org or count != want_count or \
                    not _close(total, want_total):
                problems.append(f"{node.name}: summary {summary_id} is "
                                f"{total}/{count}, join gives "
                                f"{want_total}/{want_count}")
                break
    return problems


def run_all(driver) -> List[str]:
    problems = []
    for check in (check_ledgers, check_chain, check_invoices,
                  check_summaries):
        problems.extend(check(driver))
    return problems
