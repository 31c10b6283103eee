"""Interactive TSQL2-lite shell.

A small REPL over :class:`~repro.tsql2.executor.Database`, in the
spirit of a database console::

    $ python -m repro.tsql2
    tsql2> \\seed
    tsql2> SELECT COUNT(Name) FROM Employed E
    tsql2> \\plan SELECT MAX(Salary) FROM Employed
    tsql2> \\quit

Meta-commands (backslash-prefixed):

========================  ===================================================
``\\load PATH [NAME]``     load a temporal CSV as relation NAME; malformed
                          rows are quarantined and summarised, not fatal
``\\save NAME PATH``       write a relation back out as temporal CSV
``\\tables``               list registered relations
``\\schema NAME``          show a relation's attributes and statistics
``\\seed``                 register the paper's Employed example
``\\plan QUERY``           show the Section 6.3 planner decision for QUERY's
                          underlying relation (without running it)
``\\time QUERY``           run QUERY and report the elapsed time
``\\deadline [MS]``         set (or show) the session's per-statement
                          deadline in milliseconds; ``off`` clears it
``\\budget [BYTES]``        set (or show) the session's per-statement
                          memory budget in bytes; ``off`` clears it
``\\scrub PATH``           fsck-style check of a heap file and its journal
``\\help``                 this text
``\\quit``                 exit
========================  ===================================================

Everything else is parsed as a TSQL2-lite query.  The shell is fully
scriptable: ``main`` reads from any iterable of lines and writes to any
file object, which is how the test suite drives it.

Engine failures surface as one-line diagnostics instead of tracebacks:
``error[StorageCorruption]: ... (hint: run `python -m repro.storage
scrub PATH`...)`` — every :class:`~repro.exec.TemporalAggregateError`
subclass maps to a recovery hint.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, Optional, Sequence, TextIO

from repro.core.planner import choose_strategy
from repro.exec.errors import (
    BudgetExhausted,
    DeadlineExceeded,
    InvalidInput,
    RecoveryError,
    ServerOverloaded,
    ShardFailure,
    StorageCorruption,
    StorageError,
    TemporalAggregateError,
)
from repro.relation.io import QuarantineReport, RelationIOError, read_csv, write_csv
from repro.tsql2.executor import Database, TSQL2SemanticError
from repro.tsql2.lexer import TSQL2SyntaxError
from repro.tsql2.parser import parse

__all__ = ["Shell", "diagnose", "main", "recovery_hint"]

_HELP = __doc__.split("Meta-commands", 1)[1].split("Engine failures", 1)[0]

#: Recovery hints keyed by taxonomy class, most-derived first: the
#: first ``isinstance`` match wins, so subclasses shadow their bases.
_ERROR_HINTS = (
    (
        StorageCorruption,
        "run `python -m repro.storage scrub PATH` (or \\scrub PATH) to "
        "locate the damage, then reopen with HeapFile.durable() to recover",
    ),
    (
        RecoveryError,
        "acknowledged data could not be restored; keep the journal "
        "segments and re-run recovery against a copy",
    ),
    (
        StorageError,
        "check disk space and permissions, then retry the operation",
    ),
    (
        BudgetExhausted,
        "raise the memory budget (\\budget BYTES, or `\\budget off`) or "
        "let the engine degrade to the spilling paged tree",
    ),
    (
        DeadlineExceeded,
        "raise the deadline (\\deadline MS, or `\\deadline off`) or "
        "narrow the query window",
    ),
    (
        ServerOverloaded,
        "the server is at capacity; back off for the reply's "
        "retry_after_ms and resubmit",
    ),
    (
        ShardFailure,
        "the parallel pool is unhealthy; retry with shards=1",
    ),
    (
        InvalidInput,
        "check the query's interval bounds and aggregate arguments",
    ),
    (
        TemporalAggregateError,
        "see \\help for usage",
    ),
)


def recovery_hint(error: TemporalAggregateError) -> str:
    """The recovery hint for a taxonomy error (most-derived match wins).

    Shared with the query server, which puts the same hint in its typed
    error frames so remote clients see the diagnostics the shell shows.
    """
    for kind, hint in _ERROR_HINTS:
        if isinstance(error, kind):
            return hint
    raise AssertionError("unreachable: base class terminates the table")


def diagnose(error: TemporalAggregateError) -> str:
    """One-line diagnostic with a recovery hint for a taxonomy error."""
    return f"error[{type(error).__name__}]: {error} (hint: {recovery_hint(error)})"


class Shell:
    """One REPL session over a database."""

    def __init__(
        self, database: Optional[Database] = None, out: Optional[TextIO] = None
    ) -> None:
        self.database = database if database is not None else Database()
        self.out = out if out is not None else sys.stdout
        self.done = False
        #: Session-wide per-statement limits (``\deadline`` / ``\budget``).
        self.deadline_ms: Optional[float] = None
        self.memory_budget_bytes: Optional[int] = None

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, line: str) -> None:
        """Process one input line (meta-command or query)."""
        line = line.strip()
        if not line or line.startswith("--"):
            return
        try:
            if line.startswith("\\"):
                self._meta(line)
            else:
                self._query(line)
        except TemporalAggregateError as error:
            self._print(diagnose(error))
        except (TSQL2SyntaxError, TSQL2SemanticError, RelationIOError) as error:
            self._print(f"error: {error}")
        except FileNotFoundError as error:
            self._print(f"error: {error}")

    def _meta(self, line: str) -> None:
        parts = line[1:].split()
        command, arguments = parts[0].lower(), parts[1:]
        if command in ("quit", "q", "exit"):
            self.done = True
        elif command == "help":
            self._print("Meta-commands" + _HELP)
        elif command == "tables":
            names = sorted(self.database._relations)
            if not names:
                self._print("(no relations registered; try \\seed or \\load)")
            for name in names:
                relation = self.database.relation(name)
                self._print(f"{name}  ({len(relation)} tuples)")
        elif command == "seed":
            from repro.workload.employed import employed_relation

            self.database.register(employed_relation())
            self._print("registered 'Employed' (the paper's Figure 1 relation)")
        elif command == "load":
            if not arguments:
                self._print("usage: \\load PATH [NAME]")
                return
            path = arguments[0]
            name = arguments[1] if len(arguments) > 1 else None
            report = QuarantineReport()
            relation = read_csv(
                path,
                name=name or "loaded",
                on_error="quarantine",
                report=report,
            )
            self.database.register(relation, name=name or relation.name)
            self._print(
                f"loaded {len(relation)} tuples as "
                f"{(name or relation.name)!r}"
            )
            if report.rows:
                self._print(report.summary())
        elif command == "save":
            if len(arguments) != 2:
                self._print("usage: \\save NAME PATH")
                return
            relation = self.database.relation(arguments[0])
            write_csv(relation, arguments[1])
            self._print(f"wrote {len(relation)} tuples to {arguments[1]}")
        elif command == "schema":
            if not arguments:
                self._print("usage: \\schema NAME")
                return
            relation = self.database.relation(arguments[0])
            for attribute in relation.schema:
                self._print(
                    f"{attribute.name}: {attribute.type} ({attribute.width} B)"
                )
            stats = relation.statistics()
            self._print(
                f"-- {stats.tuple_count} tuples, "
                f"{stats.unique_timestamps} unique timestamps, "
                f"k={stats.k}, sorted={stats.is_totally_ordered}"
            )
        elif command == "plan":
            query_text = line[len("\\plan") :].strip()
            if not query_text:
                self._print("usage: \\plan QUERY")
                return
            query = parse(query_text)
            relation = self.database.relation(query.table)
            decision = choose_strategy(relation.statistics())
            self._print(decision.describe())
        elif command == "deadline":
            self._set_limit("deadline", arguments)
        elif command == "budget":
            self._set_limit("budget", arguments)
        elif command == "time":
            query_text = line[len("\\time") :].strip()
            if not query_text:
                self._print("usage: \\time QUERY")
                return
            started = time.perf_counter()
            result = self.database.execute(
                query_text,
                deadline_ms=self.deadline_ms,
                memory_budget_bytes=self.memory_budget_bytes,
            )
            elapsed = time.perf_counter() - started
            self._print(result.pretty())
            self._print(f"({len(result)} rows in {elapsed:.4f}s)")
        elif command == "scrub":
            if len(arguments) != 1:
                self._print("usage: \\scrub PATH")
                return
            from repro.storage.recovery import scrub

            report = scrub(arguments[0])
            for text in report.lines():
                self._print(text)
        else:
            self._print(f"unknown meta-command \\{command}; try \\help")

    def _set_limit(self, which: str, arguments) -> None:
        """Show, set, or clear a session-wide per-statement limit."""
        unit = "ms" if which == "deadline" else "bytes"
        current = (
            self.deadline_ms if which == "deadline" else self.memory_budget_bytes
        )
        if not arguments:
            shown = "off" if current is None else f"{current} {unit}"
            self._print(f"{which}: {shown}")
            return
        token = arguments[0].lower()
        if token in ("off", "none", "0"):
            value: Optional[float] = None
        else:
            try:
                value = float(token) if which == "deadline" else int(token)
            except ValueError:
                self._print(f"usage: \\{which} [{unit.upper()}|off]")
                return
            if value <= 0:
                self._print(f"error: {which} must be positive")
                return
        if which == "deadline":
            self.deadline_ms = value
        else:
            self.memory_budget_bytes = None if value is None else int(value)
        shown = "off" if value is None else f"{value:g} {unit}"
        self._print(f"{which} set to {shown} (per statement)")

    def _query(self, line: str) -> None:
        result = self.database.execute(
            line,
            deadline_ms=self.deadline_ms,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        self._print(result.pretty())
        self._print(f"({len(result)} rows)")

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------

    def run(self, lines: Iterable[str], prompt: Optional[str] = None) -> None:
        """Consume input lines until exhausted or ``\\quit``."""
        for line in lines:
            if prompt:
                pass  # the prompt is printed by the interactive driver
            self.handle(line)
            if self.done:
                break


def _interactive_lines(prompt: str):
    while True:
        try:
            yield input(prompt)
        except EOFError:
            return


def main(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Entry point for ``python -m repro.tsql2``.

    ``-c QUERY`` runs one query and exits; ``--load PATH [--load ...]``
    preloads CSV relations; with no ``-c`` an interactive REPL starts
    (or lines are read from ``stdin`` when it is not a TTY).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.tsql2",
        description="TSQL2-lite shell over temporal relations.",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="PATH[:NAME]",
        help="preload a temporal CSV (optionally as :NAME)",
    )
    parser.add_argument("--seed", action="store_true", help="register Employed")
    parser.add_argument("-c", "--command", default=None, help="run one query and exit")
    args = parser.parse_args(argv)

    out = stdout if stdout is not None else sys.stdout
    shell = Shell(out=out)
    if args.seed:
        shell.handle("\\seed")
    for spec in args.load:
        path, _, name = spec.partition(":")
        shell.handle(f"\\load {path} {name}".rstrip())

    if args.command is not None:
        shell.handle(args.command)
        return 0

    source = stdin if stdin is not None else sys.stdin
    if source.isatty():  # pragma: no cover - interactive only
        shell._print("TSQL2-lite shell — \\help for commands, \\quit to exit")
        shell.run(_interactive_lines("tsql2> "))
    else:
        shell.run(line for line in source)
    return 0
