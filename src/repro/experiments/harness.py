"""Experiment harness: uniform result objects and claim checking.

Each experiment module exposes ``run(seed=0, **params) -> ExperimentResult``.
An :class:`ExperimentResult` carries the tables/series that stand in
for the paper's figures, plus explicit :class:`ClaimCheck` entries —
the paper's qualitative statements turned into falsifiable assertions
that the test suite and benchmarks verify on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.metrics.report import render_markdown_table, render_table


@dataclass
class ClaimCheck:
    """One falsifiable statement derived from the paper."""

    claim: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.claim}{suffix}"


@dataclass
class ResultTable:
    """A titled table of experiment output."""

    title: str
    headers: List[str]
    rows: List[List[Any]]

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)

    def render_markdown(self) -> str:
        return f"**{self.title}**\n\n" + render_markdown_table(
            self.headers, self.rows
        )


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    description: str
    tables: List[ResultTable] = field(default_factory=list)
    checks: List[ClaimCheck] = field(default_factory=list)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def add_table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
    ) -> ResultTable:
        table = ResultTable(title, list(headers), [list(r) for r in rows])
        self.tables.append(table)
        return table

    def check(self, claim: str, passed: bool, detail: str = "") -> ClaimCheck:
        entry = ClaimCheck(claim, bool(passed), detail)
        self.checks.append(entry)
        return entry

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[ClaimCheck]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        parts = [
            f"=== {self.experiment_id}: {self.title} ===",
            self.description.strip(),
        ]
        if self.parameters:
            params = ", ".join(
                f"{key}={value}" for key, value in self.parameters.items()
            )
            parts.append(f"parameters: {params}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        if self.checks:
            parts.append("")
            parts.append("Claim checks:")
            parts.extend(f"  {check}" for check in self.checks)
        return "\n".join(parts)

    def render_markdown(self) -> str:
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            self.description.strip(),
            "",
        ]
        if self.parameters:
            params = ", ".join(
                f"`{key}={value}`" for key, value in self.parameters.items()
            )
            parts.append(f"Parameters: {params}")
            parts.append("")
        for table in self.tables:
            parts.append(table.render_markdown())
            parts.append("")
        if self.checks:
            parts.append("Claim checks:")
            parts.extend(f"- {check}" for check in self.checks)
            parts.append("")
        return "\n".join(parts)


def attach_sweep_failures(result: ExperimentResult, sweep) -> bool:
    """Fold a sweep's failed points into an experiment result.

    When the sweep ran with ``on_error="collect"`` and some points
    failed, the experiment's grid is incomplete: claim checks cannot be
    evaluated.  This attaches a failure-summary table plus a failing
    :class:`ClaimCheck` (so ``all_passed`` is ``False`` and the CLI
    exits non-zero) and returns ``True``; with no failures it returns
    ``False`` and the experiment proceeds normally.
    """
    from repro.experiments.resilience import FAILURE_HEADERS, failure_rows

    failures = sweep.failures()
    if not failures:
        return False
    result.add_table(
        f"sweep failures ({len(failures)} of {len(sweep.points)} points)",
        list(FAILURE_HEADERS),
        failure_rows(failures),
    )
    result.check(
        "all sweep points completed",
        False,
        detail=(
            f"{len(failures)} of {len(sweep.points)} point(s) failed; "
            "claim checks skipped on the incomplete grid"
        ),
    )
    return True


def assert_all_claims(result: ExperimentResult) -> None:
    """Raise ``AssertionError`` listing any failed claims (test helper)."""
    failed = result.failed_checks()
    if failed:
        details = "\n".join(str(check) for check in failed)
        raise AssertionError(
            f"{result.experiment_id}: {len(failed)} claim(s) failed:\n"
            f"{details}"
        )
