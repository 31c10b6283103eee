"""The three workloads: set-up, measured window, correctness check.

Each workload runs in the benchmark's own process: a real
:class:`~repro.serve.QueryServer` (or a lone durable
:class:`~repro.replicate.node.ReplicationNode` primary for
``append_mix``) on a loopback port, driven by at most :data:`CLIENTS`
client threads.  Inputs come from :mod:`servebench.inputs` before any
clock starts.  Answers are checked after the window closes, against an
in-process evaluation that takes a different path than the server.

Every operation is timed on two clocks: the wall clock and the process
CPU clock (``time.process_time``), which advances only while a thread
of this process, server or client, runs on a CPU.  On a shared host
the hypervisor lends the process a varying share of a CPU, and the
wall clock follows that share for CPU work; the CPU clock does not.
The bounded end-to-end metrics read each operation on the clock that
does not follow it (see :func:`append_latency` and
``perfbench/README.md``).
"""

from __future__ import annotations

import functools
import gc
import math
import os
import resource
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.store import default_cache
from repro.core.engine import evaluate_triples
from repro.exec.errors import TemporalAggregateError
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.replicate.node import ReplicationNode, TableSpec
from repro.serve import QueryClient, QueryServer, ServerConfig, ServerRunner
from repro.tsql2.executor import Database

from servebench import inputs
from servebench.tracing import Tracer, client_decode_ms, layer_metrics, pin_seconds

#: Client threads driving the server (the host's ``nproc``).
CLIENTS = 2

#: Rows per append batch; ``append_mix`` loads its base rows in
#: LOAD_BATCH_ROWS batches, the read workloads append SIDE_BATCH_ROWS.
BATCH_ROWS = 8
LOAD_BATCH_ROWS = 512
SIDE_BATCH_ROWS = 128

#: Side appends per client and run.  Both read workloads tick more often
#: than this even on a slow host, so the side table, and with it the
#: process's memory, ends every run at the same size however fast the
#: host ran.
SIDE_APPENDS = 100

#: The read workloads' side table.  Each tick of their :class:`Lockstep`
#: ends with one SIDE_BATCH_ROWS append to it per client, so these workloads
#: report append latency too.  The measured relation and its cache entries
#: never see these rows.
SIDE_TABLE = "notes"

#: The journal fsync policy of ``append_mix`` (the shipped default).
FSYNC_POLICY = "commit"

#: Stop waiting for clients this long after the window closes.
JOIN_GRACE_S = 60.0


@dataclass
class ReadSample:
    """One read statement as its client saw it."""

    started: float
    latency: float
    key: Tuple[str, int] = ("", 0)
    row_count: int = 0
    rows: int = 0
    digest: int = 0
    elapsed_ms: float = 0.0
    traced: bool = False
    stmt: Optional[int] = None
    error: Optional[str] = None
    #: Process CPU time that passed between send and decoded reply.
    cpu: float = 0.0


@dataclass
class AppendSample:
    """One append batch, timed from its due send time."""

    due: float
    sent: float
    latency: float
    ack: Tuple[int, int] = (0, 0)
    error: Optional[str] = None
    #: True for the open-loop writer, whose sends follow a schedule.
    scheduled: bool = False
    #: Process CPU time that passed between send and acknowledgement.
    cpu: float = 0.0


@dataclass
class Fixture:
    """A started server and what the window needs to reach it."""

    runner: ServerRunner
    server: QueryServer
    directory: Optional[str] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.runner.host, self.runner.port

    def stats(self) -> Dict[str, Any]:
        with QueryClient(*self.address) as client:
            return client.stats()

    def stop(self) -> None:
        self.runner.stop()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


@dataclass
class Outcome:
    """Everything a run measured, before it becomes metrics."""

    setups: List[float]
    #: Process CPU time of each set-up.
    setup_cpu: List[float]
    reads: List[ReadSample]
    appends: List[AppendSample]
    wall: float
    #: Process CPU time and wall time from the window's start until
    #: every client ended.
    window_cpu: float
    window_wall: float
    before: Dict[str, Any]
    after: Dict[str, Any]
    journal: Dict[str, int] = field(default_factory=dict)
    wrong: int = 0
    #: Peak resident set (MB) through set-up and window, read before
    #: the correctness check allocates anything.
    peak_rss_mb: float = 0.0


def answer_digest(rows: Sequence[Sequence[Any]]) -> int:
    """Order-sensitive hash of an answer's rows."""
    return hash(tuple(tuple(row) for row in rows))


class Window:
    """The shared clock of one measured window.

    With a tracer, the window runs in four equal quarters: untraced,
    traced, untraced, traced.  Alternating cancels the drift of a
    growing relation out of the tracing-overhead comparison.
    """

    def __init__(self, seconds: float, tracer: Optional[Tracer]) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.t0 = 0.0
        self.stop_at = 0.0
        #: The process CPU clock when the window opened; both clocks
        #: after every client ended.
        self.cpu0 = 0.0
        self.cpu1 = 0.0
        self.t1 = 0.0
        #: Clients and the main thread meet here; the last one in opens the
        #: window.
        self.start = threading.Barrier(1)

    def open(self) -> None:
        self.cpu0 = process_time()
        self.t0 = perf_counter()
        self.stop_at = self.t0 + self.seconds

    def run(self, threads: "List[_Client]") -> None:
        self.start = threading.Barrier(len(threads) + 1, action=self.open)
        for thread in threads:
            thread.start()
        try:
            self.start.wait()
        except threading.BrokenBarrierError:
            for thread in threads:
                thread.join(JOIN_GRACE_S)
            raise next(
                t.error for t in threads if t.error is not None
            ) from None
        tracer = self.tracer
        if tracer is not None:
            try:
                for quarter in range(1, 4):
                    _sleep_until(self.t0 + quarter * self.seconds / 4)
                    if quarter % 2:
                        tracer.install()
                    else:
                        tracer.uninstall()
                _sleep_until(self.stop_at)
            finally:
                tracer.uninstall()
        for thread in threads:
            thread.join(self.seconds + JOIN_GRACE_S)
            if thread.is_alive():
                raise RuntimeError(f"client {thread.name} did not finish")
        self.cpu1 = process_time()
        self.t1 = perf_counter()


def _sleep_until(instant: float) -> None:
    delay = instant - perf_counter()
    if delay > 0:
        sleep(delay)


class Lockstep:
    """Keeps the read workloads' clients in step, like dashboards on one
    refresh tick: every client sends its statement, then each client in
    turn appends its side batch, each in a phase of its own, then the
    tick ends for all.

    Without it, one client's append let the other run ahead, and from
    run to run the pair fell in and out of coalescing.  In a phase of
    its own, a side batch waits for no other statement.
    """

    def __init__(self, parties: int, window: Window) -> None:
        self.window = window
        self.parties = parties
        self.going = True
        self._tick = threading.Barrier(parties, action=self._decide)
        self._appends = threading.Barrier(parties)

    def _decide(self) -> None:
        self.going = perf_counter() < self.window.stop_at

    def next_tick(self) -> bool:
        """Wait for every client; True while the window is open."""
        self._tick.wait(JOIN_GRACE_S)
        return self.going

    def append_phase(self) -> None:
        """Wait for every client before the next append phase."""
        self._appends.wait(JOIN_GRACE_S)

    def abort(self) -> None:
        self._tick.abort()
        self._appends.abort()


class _Client(threading.Thread):
    """A client thread: connect, wait at the window's barrier, loop."""

    def __init__(self, window: Window, address: Tuple[str, int]) -> None:
        super().__init__(name=f"perfbench-{type(self).__name__}", daemon=True)
        self.window = window
        self.address = address
        self.error: Optional[BaseException] = None
        self.appends: List[AppendSample] = []
        self.lockstep: Optional[Lockstep] = None

    def run(self) -> None:
        tracer = self.window.tracer
        if tracer is not None:
            tracer.client_threads.add(threading.get_ident())
        try:
            with QueryClient(*self.address, timeout=JOIN_GRACE_S) as client:
                self.window.start.wait()
                self.loop(client)
        except BaseException as error:  # re-raised by the main thread
            self.error = error
            self.window.start.abort()
            if self.lockstep is not None:
                self.lockstep.abort()

    def loop(self, client: QueryClient) -> None:
        raise NotImplementedError

    def append(
        self,
        client: QueryClient,
        table: str,
        batch: list,
        due: float,
        scheduled: bool,
    ) -> None:
        tracer = self.window.tracer
        span = None
        if tracer is not None and tracer.active:
            span = tracer.begin("client.append")
        cpu = process_time()
        sent = perf_counter()
        try:
            ack = client.append(table, batch)
            error = None
        except TemporalAggregateError as failure:
            ack, error = (0, 0), repr(failure)
        finally:
            if span is not None:
                tracer.end(span)
        self.appends.append(AppendSample(
            due, sent, perf_counter() - due, ack, error, scheduled,
            process_time() - cpu,
        ))


class Reader(_Client):
    """Closed loop: send the next statement once the last one returned.

    With a :class:`Lockstep`, each tick is one statement and then one
    append of a side batch to the side table, in step with the other
    readers.
    """

    def __init__(
        self,
        window: Window,
        address: Tuple[str, int],
        texts: Sequence[str],
        side_batches: Sequence[list] = (),
        lockstep: Optional[Lockstep] = None,
        slot: int = 0,
    ) -> None:
        super().__init__(window, address)
        self.texts = texts
        self.side_batches = side_batches
        self.lockstep = lockstep
        #: This reader appends in append phase ``slot`` of every tick.
        self.slot = slot
        self.samples: List[ReadSample] = []

    def loop(self, client: QueryClient) -> None:
        lockstep = self.lockstep
        index = 0
        while True:
            if lockstep is None:
                if perf_counter() >= self.window.stop_at:
                    return
            elif not lockstep.next_tick():
                return
            self.read(client, self.texts[index % len(self.texts)])
            if lockstep is not None:
                for phase in range(lockstep.parties):
                    lockstep.append_phase()
                    if phase == self.slot and len(self.appends) < SIDE_APPENDS:
                        batch = self.side_batches[index % len(self.side_batches)]
                        self.append(
                            client, SIDE_TABLE, batch, perf_counter(), False
                        )
            index += 1

    def read(self, client: QueryClient, text: str) -> None:
        tracer = self.window.tracer
        cpu = process_time()
        started = perf_counter()
        span = None
        if tracer is not None and tracer.active:
            span = tracer.begin("client.read")
        try:
            reply = client.query(text)
        except TemporalAggregateError as error:
            self.samples.append(ReadSample(
                started, perf_counter() - started, error=repr(error)
            ))
            return
        finally:
            if span is not None:
                tracer.end(span)
        latency = perf_counter() - started
        cpu = process_time() - cpu
        self.samples.append(ReadSample(
            started,
            latency,
            key=(text, reply.pinned_version),
            row_count=reply.pinned_row_count,
            rows=len(reply.rows),
            digest=answer_digest(reply.rows),
            elapsed_ms=reply.elapsed_ms,
            traced=span is not None,
            stmt=None if span is None else span.span_id,
            cpu=cpu,
        ))


class Writer(_Client):
    """Open loop: batch ``k`` is due at ``t0 + k / rate``."""

    def __init__(
        self,
        window: Window,
        address: Tuple[str, int],
        batches: Sequence[list],
        rate: float,
    ) -> None:
        super().__init__(window, address)
        self.batches = batches
        self.rate = rate

    def loop(self, client: QueryClient) -> None:
        window = self.window
        for index, batch in enumerate(self.batches):
            due = window.t0 + index / self.rate
            if due >= window.stop_at:
                return
            _sleep_until(due)
            self.append(client, inputs.TABLE, batch, due, True)
        raise RuntimeError("writer ran out of pre-generated batches")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Set-up, window and oracle of one workload; subclasses fill in."""

    name = ""
    tuples = 0
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(
        self, seed: int, seconds: float, workdir: str, tuples: Optional[int]
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        if tuples is not None:
            self.tuples = tuples
        self.rows = inputs.base_rows(self.tuples, seed)
        #: What :meth:`prepare` made for the set-up under way.
        self.prepared: Any = None

    # Hooks -------------------------------------------------------------

    def start(self) -> Fixture:
        raise NotImplementedError

    def prepare(self) -> Any:
        """Untimed per-set-up preparation (a fresh relation copy)."""
        return None

    def drive(self, fixture: Fixture, window: Window) -> Tuple[list, list]:
        raise NotImplementedError

    def expected(self, key: Tuple[str, int], row_count: int) -> int:
        raise NotImplementedError

    def journal_stats(self, fixture: Fixture) -> Dict[str, int]:
        return {}

    # Run ---------------------------------------------------------------

    def run(self, tracer: Optional[Tracer]) -> Outcome:
        setups: List[float] = []
        setup_cpu: List[float] = []
        fixture: Optional[Fixture] = None
        for repeat in range(self.setup_repeats):
            default_cache().reset()
            gc.collect()
            self.prepared = self.prepare()
            cpu = process_time()
            started = perf_counter()
            fixture = self.start()
            setups.append(perf_counter() - started)
            setup_cpu.append(process_time() - cpu)
            if repeat < self.setup_repeats - 1:
                fixture.stop()
        assert fixture is not None
        try:
            before = fixture.stats()
            journal_before = self.journal_stats(fixture)
            window = Window(self.seconds, tracer)
            reads, appends = self.drive(fixture, window)
            done = [s.started + s.latency for s in reads] or [window.stop_at]
            wall = max(done) - window.t0
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0
            after = fixture.stats()
            journal_after = self.journal_stats(fixture)
        finally:
            fixture.stop()
        outcome = Outcome(
            setups=setups,
            setup_cpu=setup_cpu,
            reads=reads,
            appends=appends,
            wall=wall,
            window_cpu=window.cpu1 - window.cpu0,
            window_wall=window.t1 - window.t0,
            before=before,
            after=after,
            journal={
                name: journal_after[name] - journal_before[name]
                for name in journal_after
            },
            peak_rss_mb=peak_rss_mb,
        )
        outcome.wrong = self.check(outcome)
        return outcome

    def check(self, outcome: Outcome) -> int:
        """Wrong answers: each distinct (statement, version) is compared
        with the oracle once; every reply must match its digest."""
        wrong = 0
        expected: Dict[Tuple[str, int], int] = {}
        for sample in outcome.reads:
            if sample.error is not None:
                continue
            if sample.key not in expected:
                expected[sample.key] = self.expected(sample.key, sample.row_count)
            if sample.digest != expected[sample.key]:
                wrong += 1
        return wrong + self.check_appends(outcome.appends)

    def check_appends(self, appends: List[AppendSample]) -> int:
        return 0


class _ServedRead(Workload):
    """A plain QueryServer over one registered relation (plus the side
    table the readers append to)."""

    #: Side batches generated per reader and sent in rotation: nothing
    #: reads the side table back, and a small pool keeps the inputs out
    #: of the heap the garbage collector walks.
    side_batches = 16

    def prepare(self) -> Any:
        return inputs.relation_of(self.rows), inputs.relation_of(())

    def start(self) -> Fixture:
        relation, side = self.prepared
        server = QueryServer(ServerConfig())
        server.register(relation, name=inputs.TABLE)
        server.register(side, name=SIDE_TABLE)
        runner = ServerRunner(server).start()
        fixture = Fixture(runner, server)
        try:
            with QueryClient(*fixture.address) as client:
                for text in self.warmup():
                    client.query(text)
        except BaseException:
            fixture.stop()
            raise
        return fixture

    def warmup(self) -> Sequence[str]:
        raise NotImplementedError

    def streams(self) -> List[Sequence[str]]:
        raise NotImplementedError

    def drive(self, fixture: Fixture, window: Window) -> Tuple[list, list]:
        lockstep = Lockstep(CLIENTS, window)
        readers = [
            Reader(
                window,
                fixture.address,
                texts,
                inputs.append_batches(
                    self.seed * CLIENTS + index,
                    self.side_batches,
                    SIDE_BATCH_ROWS,
                ),
                lockstep,
                index,
            )
            for index, texts in enumerate(self.streams())
        ]
        window.run(readers)
        for reader in readers:
            if reader.error is not None:
                raise reader.error
        return (
            [s for reader in readers for s in reader.samples],
            [s for reader in readers for s in reader.appends],
        )

    def check_appends(self, appends: List[AppendSample]) -> int:
        """Side-table acks, in version order, must count up by one batch."""
        acks = sorted(s.ack for s in appends if s.error is None)
        return sum(
            1
            for rank, (version, rows) in enumerate(acks, start=1)
            if rows != rank * SIDE_BATCH_ROWS
            or (rank > 1 and version == acks[rank - 2][0])
        )

    @functools.cached_property
    def oracle(self) -> Database:
        database = Database()
        database.register(inputs.relation_of(self.rows), name=inputs.TABLE)
        return database


class WarmRead(_ServedRead):
    """Two dashboard clients, same rotation: cache hits and coalescing."""

    name = "warm_read"
    tuples = 8192
    #: Its warmup sweeps every aggregate twice: three set-ups suffice.
    setup_repeats = 3

    def warmup(self) -> Sequence[str]:
        # Twice each: the planner takes the cached path on a repeat,
        # and the miss fills the shard-result cache.
        return [text for text in inputs.UNFILTERED for _ in range(2)]

    def streams(self) -> List[Sequence[str]]:
        return [inputs.UNFILTERED] * CLIENTS

    def expected(self, key: Tuple[str, int], row_count: int) -> int:
        # The uncached planner path: no prefer_cache, no server.
        return answer_digest(self.oracle.execute(key[0]).rows)


class FilteredRead(_ServedRead):
    """Never-identical filtered statements: no cache, no coalescing."""

    name = "filtered_read"
    tuples = 32768
    #: Statements generated per client; far more than a window sends.
    per_client = 4096

    def warmup(self) -> Sequence[str]:
        return inputs.filtered_streams(self.seed + 7_777, 1, 6)[0]

    def streams(self) -> List[Sequence[str]]:
        return inputs.filtered_streams(self.seed, CLIENTS, self.per_client)

    def expected(self, key: Tuple[str, int], row_count: int) -> int:
        # The planner never picks the object sweep, so forcing it takes
        # a different evaluator than the server's.
        return answer_digest(
            self.oracle.execute(key[0], strategy_override="sweep").rows
        )


class AppendMix(Workload):
    """A lone durable primary: an open-loop writer and one reader."""

    name = "append_mix"
    #: The planner's cached_sweep rule starts at 4,096 tuples; below it
    #: no read would take the cache's append-delta path.
    tuples = 4096
    #: Writer batches per second: above the reader's statement rate, so
    #: nearly every read pins a new version and pays the refresh.
    rate = 10.0

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.load = inputs.wire_rows(self.rows)
        budget = int(self.rate * self.seconds) + 1
        self.batches = inputs.append_batches(self.seed, budget, BATCH_ROWS)
        self._setups = 0

    def start(self) -> Fixture:
        self._setups += 1
        directory = os.path.join(
            self.workdir, f"{self.name}-{os.getpid()}-{self._setups}"
        )
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        node = ReplicationNode(
            ServerConfig(),
            tables=[TableSpec(
                inputs.TABLE,
                EMPLOYED_SCHEMA,
                os.path.join(directory, f"{inputs.TABLE}.heap"),
            )],
            fsync_policy=FSYNC_POLICY,
        )
        fixture = Fixture(ServerRunner(node).start(), node, directory)
        try:
            with QueryClient(*fixture.address) as client:
                for offset in range(0, len(self.load), LOAD_BATCH_ROWS):
                    client.append(
                        inputs.TABLE,
                        self.load[offset:offset + LOAD_BATCH_ROWS],
                    )
                for text in inputs.LATEST * 2:
                    client.query(text)
        except BaseException:
            fixture.stop()
            raise
        return fixture

    def journal_stats(self, fixture: Fixture) -> Dict[str, int]:
        node = fixture.server
        assert isinstance(node, ReplicationNode)
        heap = node.tables[inputs.TABLE].heap
        assert heap is not None and heap.journal is not None
        return heap.journal.stats.snapshot()

    def drive(self, fixture: Fixture, window: Window) -> Tuple[list, list]:
        reader = Reader(window, fixture.address, inputs.LATEST)
        writer = Writer(window, fixture.address, self.batches, self.rate)
        window.run([writer, reader])
        for client in (writer, reader):
            if client.error is not None:
                raise client.error
        return reader.samples, writer.appends

    def expected(self, key: Tuple[str, int], row_count: int) -> int:
        # Base rows plus the acknowledged batches, cut at the pinned
        # row count, through the object sweep over raw triples.
        prefix = self.all_rows[:row_count]
        if key[0] == inputs.LATEST[0]:
            aggregate, position = "sum", 1
        else:
            aggregate, position = "count", 0
        triples = [(row[-2], row[-1], row[position]) for row in prefix]
        result = evaluate_triples(triples, aggregate, "sweep", validate=False)
        return answer_digest((r.start, r.end, r.value) for r in result)

    @functools.cached_property
    def all_rows(self) -> List[list]:
        """Base rows, then every writer batch in send order."""
        return self.load + [row for batch in self.batches for row in batch]

    def check_appends(self, appends: List[AppendSample]) -> int:
        wrong = 0
        version = None
        ok = [sample for sample in appends if sample.error is None]
        for index, sample in enumerate(ok, start=1):
            expected_rows = len(self.load) + index * BATCH_ROWS
            if sample.ack[1] != expected_rows or (
                version is not None and sample.ack[0] != version + 1
            ):
                wrong += 1
            version = sample.ack[0]
        return wrong


WORKLOADS = {cls.name: cls for cls in (WarmRead, FilteredRead, AppendMix)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def _delta(outcome: Outcome, section: str, name: str) -> float:
    return float(outcome.after[section][name] - outcome.before[section][name])


def append_latency(sample: AppendSample) -> float:
    """An append's latency on the clock that does not follow the CPU
    share the host lends.

    A side batch of the read workloads runs alone in its phase of the
    tick and is CPU work: the CPU clock.  The open-loop writer's batch
    mostly waits, from its due time, for the interpreter lock that the
    closed-loop reader holds, which the interpreter hands over on a
    wall-clock interval, and for the journal's fsync: the wall clock.
    """
    return sample.latency if sample.scheduled else sample.cpu


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """The bounded metrics; see ``perfbench/README.md`` for the clocks."""
    reads = [s for s in outcome.reads if s.error is None]
    appends = [s for s in outcome.appends if s.error is None]
    read_ms = [s.cpu * 1000.0 for s in reads]
    append_ms = [append_latency(s) * 1000.0 for s in appends]
    return {
        "setup_s": statistics.median(outcome.setup_cpu),
        "read_p50_cpu_ms": percentile(read_ms, 0.50),
        "read_p90_cpu_ms": percentile(read_ms, 0.90),
        "reads_per_cpu_s": len(reads) / outcome.window_cpu,
        "rows_per_cpu_s": sum(s.rows for s in reads) / outcome.window_cpu,
        "append_p50_ms": percentile(append_ms, 0.50),
        "append_p90_ms": percentile(append_ms, 0.90),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def wall_clock(outcome: Outcome) -> Dict[str, float]:
    """Every operation on the wall clock, printed but not bounded: on a
    shared host these follow the CPU share the host lends."""
    reads = [s for s in outcome.reads if s.error is None]
    appends = [s for s in outcome.appends if s.error is None]
    latencies = [s.latency * 1000.0 for s in reads]
    append_ms = [s.latency * 1000.0 for s in appends]
    return {
        "setup_wall_s": statistics.median(outcome.setups),
        "read_p50_ms": percentile(latencies, 0.50),
        "read_p90_ms": percentile(latencies, 0.90),
        "read_qps": len(reads) / outcome.wall,
        "rows_per_s": sum(s.rows for s in reads) / outcome.wall,
        "append_p50_wall_ms": percentile(append_ms, 0.50),
        "append_p90_wall_ms": percentile(append_ms, 0.90),
        "cpu_share": outcome.window_cpu / outcome.window_wall,
    }


def per_layer(outcome: Outcome, tracer: Tracer) -> Dict[str, float]:
    metrics = layer_metrics(tracer.spans)
    reads = [s for s in outcome.reads if s.error is None]
    traced = [s for s in reads if s.traced]
    untraced = [s for s in reads if not s.traced]
    decoded = client_decode_ms(tracer.spans)
    count = len(traced)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics["protocol.decode_ms"] = mean(
        [decoded.get(s.stmt, 0.0) * 1000.0 for s in traced]
    )
    metrics["serve.server_ms"] = mean([s.elapsed_ms for s in traced])
    metrics["serve.wait_ms"] = mean([
        s.latency * 1000.0 - s.elapsed_ms - decoded.get(s.stmt, 0.0) * 1000.0
        for s in traced
    ]) - metrics["protocol.encode_ms"]
    metrics["serve.pin_ms"] = (pin_seconds(tracer.spans) / count * 1000.0
                               if count else 0.0)

    # Only queries coalesce; appends count in statements_started.
    metrics["serve.coalesced_ratio"] = (
        _delta(outcome, "scheduler", "coalesced_statements") / len(reads)
        if reads else 0.0
    )
    admitted = _delta(outcome, "admission", "statements_admitted")
    metrics["serve.degraded_ratio"] = (
        _delta(outcome, "admission", "degraded_statements") / admitted
        if admitted else 0.0
    )
    hits = _delta(outcome, "cache", "hits")
    misses = _delta(outcome, "cache", "misses")
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.dirty_shards_per_read"] = (
        _delta(outcome, "cache", "dirty_shards") / len(reads) if reads else 0.0
    )
    metrics["cache.evictions"] = _delta(outcome, "cache", "evictions")
    metrics["cache.live_bytes"] = float(outcome.after["cache"]["live_bytes"])

    journal = outcome.journal
    logged = journal.get("appends_logged", 0)
    metrics["storage.journal_bytes_per_row"] = (
        journal.get("bytes_written", 0) / logged if logged else 0.0
    )
    commits = journal.get("commits", 0)
    metrics["storage.syncs_per_append"] = (
        journal.get("syncs", 0) / commits if commits else 0.0
    )
    metrics["load.writer_late_p90_ms"] = percentile(
        [(s.sent - s.due) * 1000.0 for s in outcome.appends if s.scheduled],
        0.90,
    )
    base = percentile([s.latency for s in untraced], 0.50)
    metrics["trace.read_p50_overhead_pct"] = (
        (percentile([s.latency for s in traced], 0.50) / base - 1.0) * 100.0
        if base else 0.0
    )
    return metrics
