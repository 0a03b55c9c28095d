"""Output checks, the public-API oracle and the result digest.

Each check returns a list of problems; an empty list means the output
passed.  The checks read only the reports the CLI wrote, plus the input
files the benchmark generated.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

MIRROR = {
    "first_dominates": "second_dominates",
    "second_dominates": "first_dominates",
    "no_dominance": "no_dominance",
    "indistinguishable": "indistinguishable",
}
SIMULATE_HEADER = [
    "scenario_id", "family", "mean_ratio", "std_ratio", "skew_ratio",
    "utility_id", "a", "success_pct", "n_pairs", "n_regenerations",
]


def report_body(path: str) -> str:
    """The report without its ``#`` manifest lines (which hold a timestamp)."""
    with open(path, encoding="utf-8") as handle:
        return "".join(line for line in handle if not line.startswith("#"))


def report_rows(path: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(report_body(path))))


def digest(bodies) -> str:
    h = hashlib.sha256()
    for body in bodies:
        h.update(body.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _on_grid(pct: float, n: int) -> bool:
    count = pct * n / 100.0
    return abs(count - round(count)) <= 1e-6


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def check_simulate(path: str, specs, panel_ids) -> dict[str, list[str]]:
    """Problems per scenario id: every panel utility present once, and
    ``success_pct`` in [0, 100] on the 100/n_pairs grid."""
    problems = {spec.scenario_id: [] for spec in specs}
    rows = report_rows(path)
    if not rows or rows[0] != SIMULATE_HEADER:
        return {sid: ["bad report header"] for sid in problems}
    n_pairs = {spec.scenario_id: spec.n_pairs for spec in specs}
    seen = {sid: [] for sid in problems}
    for row in rows[1:]:
        sid = row[0]
        if sid not in problems or len(row) != len(SIMULATE_HEADER):
            return {sid: [f"unexpected row {row[:1]}"] for sid in problems}
        seen[sid].append(row[5])
        pct = float(row[7])
        if not 0.0 <= pct <= 100.0 or not _on_grid(pct, n_pairs[sid]):
            problems[sid].append(f"{row[5]}: success_pct {pct} off the 100/{n_pairs[sid]} grid")
        if int(row[8]) != n_pairs[sid]:
            problems[sid].append(f"n_pairs {row[8]} != {n_pairs[sid]}")
    for sid, ids in seen.items():
        if sorted(ids) != sorted(panel_ids):
            problems[sid].append("panel utilities missing or repeated")
    return problems


def simulate_success(path: str) -> dict[tuple[str, str], float]:
    return {(row[0], row[5]): float(row[7]) for row in report_rows(path)[1:]}


def oracle_simulate(spec, panel, reported: dict) -> list[str]:
    """Re-derive every pair of one cell through the public API and compare
    the agreement percentages with the report.  Valid for cells whose
    pairs never breach a clamping budget (the CLI regenerates those)."""
    from mvlab import Relation, generate_mv_pair, moments, mvc_test, sample_expected_utility

    agree = {u.identifier: 0 for u in panel}
    for i in range(spec.n_pairs):
        z1, z2 = generate_mv_pair(spec, i)
        if mvc_test(moments(z1), moments(z2)).relation is not Relation.FIRST_DOMINATES:
            return [f"{spec.scenario_id} pair {i}: not an MV pair"]
        for u in panel:
            if sample_expected_utility(z1, u)[0] >= sample_expected_utility(z2, u)[0]:
                agree[u.identifier] += 1
    problems = []
    for uid, count in agree.items():
        expected = 100.0 * count / spec.n_pairs
        got = reported.get((spec.scenario_id, uid))
        if got is None or abs(got - expected) > 1e-9:
            problems.append(f"{spec.scenario_id} {uid}: reported {got}, oracle {expected}")
    return problems


# ---------------------------------------------------------------------------
# deciles
# ---------------------------------------------------------------------------


def check_deciles(prefix: str, n_deciles: int, panel_ids) -> dict[int, list[str]]:
    """Problems per decile cell: ``n_evaluated <= n_mv_pairs`` and each
    percentage in [0, 100] on its n_evaluated grid (blank when 0)."""
    problems = {k: [] for k in range(1, n_deciles + 1)}
    pct_rows = report_rows(f"{prefix}_agreement.csv")
    count_rows = report_rows(f"{prefix}_agreement_counts.csv")
    header = ["pairing", "n_mv_pairs"] + list(panel_ids)
    if pct_rows[:1] != [header] or count_rows[:1] != [header]:
        return {k: ["bad report header"] for k in problems}
    if len(pct_rows) != n_deciles + 1 or len(count_rows) != n_deciles + 1:
        return {k: ["missing decile rows"] for k in problems}
    for k, (pct_row, count_row) in enumerate(zip(pct_rows[1:], count_rows[1:]), start=1):
        if pct_row[0] != f"Dec 1 vs Dec {k}" or pct_row[:2] != count_row[:2]:
            problems[k].append("pairing label or n_mv_pairs mismatch")
            continue
        n_mv = int(count_row[1])
        for uid, pct_text, n_text in zip(panel_ids, pct_row[2:], count_row[2:]):
            n_eval = int(n_text)
            if not 0 <= n_eval <= n_mv:
                problems[k].append(f"{uid}: n_evaluated {n_eval} > n_mv_pairs {n_mv}")
            if n_eval == 0:
                if pct_text:
                    problems[k].append(f"{uid}: percentage without evaluated pairs")
                continue
            pct = float(pct_text)
            if not 0.0 <= pct <= 100.0 or not _on_grid(pct, n_eval):
                problems[k].append(f"{uid}: {pct} off the 100/{n_eval} grid")
    return problems


def oracle_deciles(returns_path: str, prefix: str, n_deciles: int, decile: int, panel) -> list[str]:
    """Re-derive one cross-decile cell (decile 1 vs ``decile``) through the
    public API and compare its counts with the report."""
    from mvlab import (
        DomainError, Relation, build_deciles, load_returns, moments, mvc_test,
        sample_expected_utility,
    )
    from mvlab.empirical import MIN_OBSERVATIONS

    table = load_returns(returns_path)
    assignment = build_deciles(table, n_deciles)
    column = {t: table.returns[:, j] for j, t in enumerate(table.tickers)}
    n_mv = 0
    n_eval = {u.identifier: 0 for u in panel}
    n_agree = dict(n_eval)
    for s1 in assignment.deciles[0]:
        for s2 in assignment.deciles[decile - 1]:
            if s1 == s2:
                continue
            mask = ~np.isnan(column[s1]) & ~np.isnan(column[s2])
            if mask.sum() < MIN_OBSERVATIONS:
                continue
            r1, r2 = column[s1][mask], column[s2][mask]
            if mvc_test(moments(r1), moments(r2)).relation is not Relation.FIRST_DOMINATES:
                continue
            n_mv += 1
            for u in panel:
                try:
                    eu1, _ = sample_expected_utility(r1, u)
                    eu2, _ = sample_expected_utility(r2, u)
                except DomainError:
                    continue
                n_eval[u.identifier] += 1
                n_agree[u.identifier] += eu1 >= eu2
    row = report_rows(f"{prefix}_agreement_counts.csv")[decile]
    problems = []
    if int(row[1]) != n_mv:
        problems.append(f"decile {decile}: reported {row[1]} MV pairs, oracle {n_mv}")
    pct_row = report_rows(f"{prefix}_agreement.csv")[decile]
    for u, n_text, pct_text in zip(panel, row[2:], pct_row[2:]):
        uid = u.identifier
        if int(n_text) != n_eval[uid]:
            problems.append(f"decile {decile} {uid}: reported {n_text} evaluated, oracle {n_eval[uid]}")
        elif n_eval[uid] and abs(float(pct_text) - 100.0 * n_agree[uid] / n_eval[uid]) > 1e-9:
            problems.append(f"decile {decile} {uid}: reported {pct_text}%")
    return problems


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_relations(path: str) -> dict[str, str]:
    """rule or screen id -> relation text, from one compare report."""
    rows = report_rows(path)
    if rows[:1] != [["rule", "relation", "strict", "witness"]]:
        return {}
    return {row[0]: row[1] for row in rows[1:]}


def check_compare(forward: dict, backward: dict) -> tuple[list[str], list[str]]:
    """Problems of the (a, b) and the (b, a) call: FSD => SSD => TSD in
    each, and swapping the arguments mirrors every rule and screen."""
    out = []
    for rel in (forward, backward):
        problems = []
        if any(rule not in rel for rule in ("fsd", "ssd", "tsd", "mvc", "quad")):
            problems.append("rules missing from report")
        else:
            for lower, higher in (("fsd", "ssd"), ("ssd", "tsd")):
                if rel[lower] in ("first_dominates", "second_dominates") and rel[higher] != rel[lower]:
                    problems.append(f"{lower} {rel[lower]} but {higher} {rel[higher]}")
        out.append(problems)
    if not out[0] and not out[1]:
        for rule in ("fsd", "ssd", "tsd", "mvc", "quad"):
            if backward[rule] != MIRROR.get(forward[rule]):
                out[1].append(f"{rule}: swapped call gave {backward[rule]}, not the mirror of {forward[rule]}")
        for order in (1, 2, 3):
            a_key, b_key = f"screen_a_over_b_order{order}", f"screen_b_over_a_order{order}"
            if forward.get(a_key) != backward.get(b_key) or forward.get(b_key) != backward.get(a_key):
                out[1].append(f"order {order} screens do not mirror")
    return out[0], out[1]


def oracle_compare(lottery_a, lottery_b, forward: dict) -> list[str]:
    """The MV verdict re-derived from the generated lotteries' moments."""
    from mvlab import DiscreteLottery, mvc_test

    m_a = DiscreteLottery(*lottery_a).moment_summary()
    m_b = DiscreteLottery(*lottery_b).moment_summary()
    expected = mvc_test(m_a, m_b).relation.value
    if forward.get("mvc") != expected:
        return [f"mvc: reported {forward.get('mvc')}, oracle {expected}"]
    return []
