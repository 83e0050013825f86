"""Correctness gate for the outputs of one benchmark run.

The report's own ``agreement`` booleans are not used: they judge the
simulation against the closed-form independent-reading model, which a
correct run misses on several checks.  Instead a ``gaa-1db`` report is held
to the pad's closed-form moment ratio and to the frozen bivariate-normal
oracle for simultaneous readings (the constants in ``tests/test_attack.py``),
and a ``lossless`` report to the exact identities of a single loop.

Every check returns a list of problems; an empty list means the output
passed.  ``self_check`` feeds the gate known-bad copies of a good output and
returns the ones it wrongly accepted, so a broken gate cannot pass silently.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Any, Callable, Iterable, Iterator

# closed-form mean-square ratio of the gaa-1db network (series elements neglected)
GAA_RATIO = 4.956043956043957
# bivariate-normal orthant oracle for one simultaneous reading pair on gaa-1db
ORACLE_RATES = {"n_success": 0.305916, "n_error": 0.015511, "n_no_answer": 0.678573}
ORACLE_MEAN_MEASUREMENTS = 3.1111
N_SE = 5.0  # allowed deviation, in standard errors, of a Monte Carlo estimate
CSV_HEADER = "period,sample,i_alice,i_bob,v_node"


def check_analytic(report: dict[str, Any], workload) -> list[str]:
    try:
        ratio = report["analytic"]["moments"]["ratio"]
    except (KeyError, TypeError):
        return ["report has no analytic.moments.ratio"]
    if not isinstance(ratio, float):
        return [f"analytic ratio {ratio!r} is not a number"]
    if workload.preset == "lossless":
        return [] if ratio == 1.0 else [f"lossless analytic ratio {ratio} != 1"]
    if abs(ratio / GAA_RATIO - 1.0) > 0.01:
        return [f"analytic ratio {ratio} not within 1% of {GAA_RATIO}"]
    return []


def check_report(report: dict[str, Any], workload) -> list[str]:
    """Problems with one ``simulate`` report for ``workload``."""
    problems = check_analytic(report, workload)
    try:
        emp = report["empirical"]
        att = emp["attack"]
        alarm = emp["alarm"]
        if emp["n_bits"] != workload.bits:
            problems.append(f"n_bits {emp['n_bits']} != {workload.bits}")
        trials_per_period = len(range(0, workload.samples_per_bit, workload.stride))
        if att["n_trials"] != emp["n_secure"] * trials_per_period:
            problems.append(f"n_trials {att['n_trials']} != n_secure x {trials_per_period}")
        if workload.preset == "lossless":
            problems += _lossless_identities(emp, att, alarm)
        else:
            problems += _gaa_statistics(emp, att, alarm, workload)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"report malformed: {exc!r}")
    return problems


def _lossless_identities(emp, att, alarm) -> list[str]:
    problems = []
    if att["n_success"] != 0 or att["n_error"] != 0:
        problems.append(f"lossless attack answered: {att['n_success']} successes, {att['n_error']} errors")
    if att["n_no_answer"] != att["n_trials"]:
        problems.append("lossless n_no_answer != n_trials")
    if alarm["n_triggered"] != 0:
        problems.append(f"lossless alarm fired {alarm['n_triggered']} times")
    if emp["ratio"] != 1.0:
        problems.append(f"lossless ratio {emp['ratio']} != 1")
    return problems


def _gaa_statistics(emp, att, alarm, workload) -> list[str]:
    problems = []
    ratio = emp["ratio"]
    if not isinstance(ratio, float) or abs(ratio / GAA_RATIO - 1.0) > 0.02:
        problems.append(f"empirical ratio {ratio} not within 2% of {GAA_RATIO}")
    n = att["n_trials"]
    for key, p in ORACLE_RATES.items():
        z = (att[key] / n - p) / math.sqrt(p * (1.0 - p) / n)
        if abs(z) > N_SE:
            problems.append(f"{key} rate {att[key] / n:.6f} is {z:+.1f} SE from oracle {p}")
    if emp["n_secure"] == 0 or alarm["n_triggered_secure"] != emp["n_secure"]:
        problems.append(
            f"alarm fired on {alarm['n_triggered_secure']} of {emp['n_secure']} secure periods"
        )
    if workload.check_mean_measurements:
        repeat = att["repeat_until_answer"]
        hist = {int(k): v for k, v in repeat["measurements_hist"].items()}
        count = sum(hist.values())
        mean = repeat["mean_measurements"]
        var = sum(v * (k - mean) ** 2 for k, v in hist.items()) / count
        z = (mean - ORACLE_MEAN_MEASUREMENTS) / math.sqrt(var / count)
        if abs(z) > N_SE:
            problems.append(f"mean measurements {mean:.4f} is {z:+.1f} SE from {ORACLE_MEAN_MEASUREMENTS}")
    return problems


def check_csv(lines: Iterable[str], n_rows: int) -> list[str]:
    """The trace CSV must hold ``n_rows`` data rows, each with i_alice == i_bob."""
    it = iter(lines)
    header = next(it, "").rstrip("\r\n")
    if header != CSV_HEADER:
        return [f"CSV header {header!r} != {CSV_HEADER!r}"]
    rows = 0
    unequal = 0
    for line in it:
        fields = line.split(",")
        if len(fields) != 5 or fields[2] != fields[3]:
            unequal += 1
        rows += 1
    problems = []
    if rows != n_rows:
        problems.append(f"CSV has {rows} data rows, expected {n_rows}")
    if unequal:
        problems.append(f"{unequal} CSV rows malformed or with i_alice != i_bob")
    return problems


def self_check(report: dict[str, Any], workload, csv_lines: Callable[[], Iterator[str]]) -> list[str]:
    """Known-bad variants of a good output that the gate failed to reject."""
    bad: list[tuple[str, Callable[[], list[str]]]] = []
    if workload.preset == "lossless":
        one_error = copy.deepcopy(report)
        one_error["empirical"]["attack"]["n_error"] = 1
        one_error["empirical"]["attack"]["n_no_answer"] -= 1
        bad.append(("lossless report with one attack error", lambda: check_report(one_error, workload)))
    else:
        lossless_counts = copy.deepcopy(report)
        att = lossless_counts["empirical"]["attack"]
        att.update(n_success=0, n_error=0, n_no_answer=att["n_trials"])
        bad.append(("gaa-1db report with lossless attack counts", lambda: check_report(lossless_counts, workload)))
        missed_alarm = copy.deepcopy(report)
        missed_alarm["empirical"]["alarm"]["n_triggered_secure"] -= 1
        bad.append(("gaa-1db report with one missed alarm", lambda: check_report(missed_alarm, workload)))
    if workload.trace_csv:
        n = workload.samples
        bad.append(("CSV one row short", lambda: check_csv(itertools.islice(csv_lines(), n), n)))
        bad.append(("CSV with i_alice != i_bob", lambda: check_csv(_skew_first_row(csv_lines()), n)))
    return [name for name, check in bad if not check()]


def _skew_first_row(lines: Iterator[str]) -> Iterator[str]:
    yield next(lines)
    fields = next(lines).split(",")
    fields[3] = repr(float(fields[3]) + 1.0)
    yield ",".join(fields)
    yield from lines
