//! `serve-live`: `serve_tcp` over loopback with a packed columnar
//! archive, driven by two paced closed-loop clients.
//!
//! - The writer backfills telemetry: one `ingest` of 2016 steps (one
//!   week at 5 min) per 50 ms tick over a fixed span.
//! - The reader sends a seeded mix of `status`, `metrics`, `report`,
//!   `figure` and `replay` (seeded spans, limit 100) on a 2 ms tick for
//!   the writer's lifetime.
//!
//! Writes beside reads on the sweep's `RwLock`, and replay scans of the
//! archive, measure transport, protocol, dispatch, lock contention and
//! replay decode. Month sharding, the shard merge and the predictor are
//! not used.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration as StdDuration, Instant};

use mira_core::{
    archive, Duration, IncrementalSweep, SimConfig, SimTime, Simulation, TelemetryRecord,
};
use mira_serve::state::FIGURE_IDS;
use mira_serve::{parse_request, serve_tcp, Json, ServeState};
use mira_store::{Archive, ColumnarArchive};

use crate::common::{hydro_hit_ratio, ms, peak_rss_mb, ratio, Rng};
use crate::fingerprint::checkout_root;
use crate::outcome::Outcome;
use crate::pacing::Pacer;
use crate::stats::Samples;
use crate::trace;

const STEP: Duration = Duration::from_minutes(5);
/// Grid instants one `ingest` request appends (one week).
const INGEST_STEPS: u64 = 2016;
const WRITER_TICK: StdDuration = StdDuration::from_millis(50);
const READER_TICK: StdDuration = StdDuration::from_millis(2);
/// Writes per run are capped so the backfill stays inside the
/// simulation's six years: (300 + 1) · 2016 < 631,152 grid instants.
const MAX_WRITES: u64 = 300;
/// Weeks of telemetry packed into the archive replays read from.
const ARCHIVE_WEEKS: i64 = 2;
const REPLAY_LIMIT: u64 = 100;
/// Longest replay span, in grid instants (one day).
const REPLAY_MAX_INSTANTS: u64 = 288;
/// A reply slower than this is a timeout and ends the client.
const REPLY_TIMEOUT: StdDuration = StdDuration::from_secs(10);
const SETUPS: usize = 7;
const RACKS: u64 = 48;

/// Timings of one set-up.
struct Setup {
    state: ServeState,
    listener: TcpListener,
    rows: usize,
    records_s: f64,
    pack_s: f64,
}

fn archive_span(sim: &Simulation) -> (SimTime, SimTime) {
    let (from, _) = sim.config().span();
    (from, from + Duration::from_days(7 * ARCHIVE_WEEKS))
}

/// Time to ready: simulation, packed archive, bound listener.
fn setup(seed: u64, path: &Path) -> Result<Setup, String> {
    let sim = Simulation::new(SimConfig::with_seed(seed));
    let (from, to) = archive_span(&sim);
    let started = Instant::now();
    // Sized up front: growing by doubling would leave the peak memory
    // of a set-up to the allocator's reuse of freed blocks.
    let instants = (to - from).as_seconds() / STEP.as_seconds();
    let mut rows: Vec<TelemetryRecord> =
        Vec::with_capacity(usize::try_from(instants).unwrap_or(0) * RACKS as usize);
    archive::sweep_records(sim.telemetry(), from, to, STEP, |r| {
        rows.push(*r);
        Ok::<(), ()>(())
    })
    .map_err(|()| "sweep_records failed".to_owned())?;
    let records_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut packed = ColumnarArchive::create(path).map_err(|e| e.to_string())?;
    packed.append_telemetry(&rows).map_err(|e| e.to_string())?;
    packed.flush().map_err(|e| e.to_string())?;
    drop(packed);
    let pack_s = started.elapsed().as_secs_f64();
    let store = mira_store::open_archive(path).map_err(|e| e.to_string())?;
    let state = ServeState::new(sim, STEP)
        .map_err(|e| e.to_string())?
        .with_store(store);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(Setup {
        state,
        listener,
        rows: rows.len(),
        records_s,
        pack_s,
    })
}

/// Set-up timings of a run.
#[derive(Default)]
struct SetupTimes {
    setup_s: Samples,
    new_ms: Samples,
    records_rate: Samples,
    pack_rate: Samples,
}

impl SetupTimes {
    /// Times one set-up, then a bare `Simulation::new`.
    fn time(&mut self, seed: u64, path: &Path) -> Result<Setup, String> {
        let started = Instant::now();
        let s = setup(seed, path)?;
        self.setup_s.push(started.elapsed().as_secs_f64());
        self.records_rate.push(s.rows as f64 / s.records_s);
        self.pack_rate.push(s.rows as f64 / s.pack_s);
        let started = Instant::now();
        drop(std::hint::black_box(Simulation::new(SimConfig::with_seed(
            seed,
        ))));
        self.new_ms.push(ms(started.elapsed()));
        Ok(s)
    }

    fn report(&self, out: &mut Outcome) {
        out.set("setup_s", self.setup_s.median());
        out.set("core.simulation.new_ms", self.new_ms.median());
        out.set(
            "core.archive.sweep_records_rows_per_s",
            self.records_rate.median(),
        );
        out.set("store.pack_rows_per_s", self.pack_rate.median());
    }
}

/// One NDJSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line (one write) and reads its reply line.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("no reply within {REPLY_TIMEOUT:?}: {e}")),
        }
    }
}

/// A reader request and what its reply must show.
struct Query {
    kind: &'static str,
    line: String,
    /// Rows a replay must return.
    replay_rows: Option<u64>,
}

/// The reader's seeded request mix.
fn next_query(rng: &mut Rng, id: u64, archive: (SimTime, SimTime)) -> Query {
    let (kind, line, replay_rows) = match rng.below(5) {
        0 => (
            "serve.client.status",
            format!("{{\"cmd\":\"status\",\"id\":{id}}}"),
            None,
        ),
        1 => (
            "serve.client.metrics",
            format!("{{\"cmd\":\"metrics\",\"id\":{id}}}"),
            None,
        ),
        2 => (
            "serve.client.report",
            format!("{{\"cmd\":\"report\",\"id\":{id}}}"),
            None,
        ),
        3 => {
            let pick = usize::try_from(rng.below(FIGURE_IDS.len() as u64)).unwrap_or(0);
            let figure = FIGURE_IDS.get(pick).copied().unwrap_or("fig2");
            (
                "serve.client.figure",
                format!("{{\"cmd\":\"figure\",\"figure\":\"{figure}\",\"id\":{id}}}"),
                None,
            )
        }
        _ => {
            let (lo, hi) = archive;
            let step = u64::try_from(STEP.as_seconds()).unwrap_or(300);
            let grid = u64::try_from((hi - lo).as_seconds()).unwrap_or(0) / step;
            let first = rng.below(grid);
            let len = (1 + rng.below(REPLAY_MAX_INSTANTS)).min(grid - first);
            let from = u64::try_from(lo.epoch_seconds()).unwrap_or(0) + first * step;
            let to = from + len * step;
            (
                "serve.client.replay",
                format!(
                    "{{\"cmd\":\"replay\",\"from\":{from},\"to\":{to},\"limit\":{REPLAY_LIMIT},\"id\":{id}}}"
                ),
                Some((len * RACKS).min(REPLAY_LIMIT)),
            )
        }
    };
    Query {
        kind,
        line,
        replay_rows,
    }
}

/// Scan counters summed over replay replies.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayTotals {
    returned: u64,
    rows_scanned: u64,
    groups_scanned: u64,
    groups_total: u64,
}

/// Checks a reply: `ok`, echoes `id`, and for a replay returns the
/// expected row count. Returns the parsed reply.
fn check_reply(reply: &str, id: u64, replay_rows: Option<u64>) -> Result<Json, String> {
    let doc = Json::parse(reply).map_err(|e| format!("id {id}: unparsable reply: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("id {id}: error reply {reply}"));
    }
    if doc.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("id {id}: reply echoes another id: {reply}"));
    }
    if let Some(want) = replay_rows {
        let got = doc.get("returned").and_then(Json::as_u64);
        if got != Some(want) {
            return Err(format!(
                "id {id}: replay returned {got:?} rows, want {want}"
            ));
        }
    }
    Ok(doc)
}

/// What one live phase measured.
#[derive(Default)]
struct Phase {
    /// Reader query latencies, ms.
    queries: Samples,
    /// Writer ingest latencies, ms.
    ingests: Samples,
    writes: u64,
    wall_s: f64,
    /// Both clients' paced sends: each one's lag (ms), and how many
    /// trailed their tick.
    lags_ms: Samples,
    late: u64,
    replay: ReplayTotals,
    /// One entry per request: `None` or why it failed.
    results: Vec<Option<String>>,
    /// Client spans (traced phases only).
    spans: Vec<trace::Span>,
}

impl Phase {
    fn pacing(&mut self, pacer: &Pacer) {
        for lag in pacer.lags() {
            self.lags_ms.push(ms(*lag));
        }
        self.late += pacer.late();
    }

    fn absorb_pacing(&mut self, other: &Phase) {
        for &lag in other.lags_ms.values() {
            self.lags_ms.push(lag);
        }
        self.late += other.late;
    }
}

/// Runs the reader (and, with `writes > 0`, the writer) against the
/// server at `addr`. Without a writer the reader runs for `alone`.
fn live_phase(
    addr: SocketAddr,
    rng: &mut Rng,
    next_id: &mut u64,
    writes: u64,
    alone: StdDuration,
    archive: (SimTime, SimTime),
    origin: Option<Instant>,
) -> Phase {
    let writer_done = AtomicBool::new(writes == 0);
    let started = Instant::now();
    let reader_seed = rng.next_u64();
    let reader_ids = *next_id;
    let writer_ids = *next_id + 1_000_000;
    *next_id += 2_000_000;
    let (reader, writer) = std::thread::scope(|scope| {
        let writer = (writes > 0).then(|| {
            scope.spawn(|| {
                if let Some(origin) = origin {
                    trace::start(origin);
                }
                let mut p = Phase::default();
                let mut pacer = Pacer::new(WRITER_TICK);
                let client = Client::connect(addr);
                match client {
                    Ok(mut c) => {
                        let t0 = Instant::now();
                        for i in 0..writes {
                            pacer.wait(t0);
                            let id = writer_ids + i;
                            let line = format!(
                                "{{\"cmd\":\"ingest\",\"steps\":{INGEST_STEPS},\"id\":{id}}}"
                            );
                            let sent = Instant::now();
                            let reply = c.call(&line).map(str::to_owned);
                            let done = Instant::now();
                            trace::set_op(id);
                            trace::record("serve.client.ingest", sent, done);
                            match reply.and_then(|r| check_reply(&r, id, None)) {
                                Ok(_) => {
                                    p.ingests.push(ms(done - sent));
                                    p.writes += 1;
                                    p.results.push(None);
                                }
                                Err(e) => {
                                    p.results.push(Some(e));
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => p.results.push(Some(format!("writer cannot connect: {e}"))),
                }
                writer_done.store(true, Ordering::Release);
                p.pacing(&pacer);
                (p, trace::finish())
            })
        });
        let reader = scope.spawn(|| {
            if let Some(origin) = origin {
                trace::start(origin);
            }
            let mut p = Phase::default();
            let mut rng = Rng::new(reader_seed);
            let mut pacer = Pacer::new(READER_TICK);
            match Client::connect(addr) {
                Ok(mut c) => {
                    let t0 = Instant::now();
                    let mut i = 0;
                    loop {
                        let more = if writes > 0 {
                            !writer_done.load(Ordering::Acquire)
                        } else {
                            t0.elapsed() < alone
                        };
                        if !more {
                            break;
                        }
                        pacer.wait(t0);
                        let id = reader_ids + i;
                        i += 1;
                        let q = next_query(&mut rng, id, archive);
                        let sent = Instant::now();
                        let reply = c.call(&q.line).map(str::to_owned);
                        let done = Instant::now();
                        trace::set_op(id);
                        trace::record(q.kind, sent, done);
                        match reply.and_then(|r| check_reply(&r, id, q.replay_rows)) {
                            Ok(doc) => {
                                p.queries.push(ms(done - sent));
                                p.results.push(None);
                                if q.replay_rows.is_some() {
                                    let field =
                                        |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                                    p.replay.returned += field("returned");
                                    p.replay.rows_scanned += field("rows_scanned");
                                    p.replay.groups_scanned += field("groups_scanned");
                                    p.replay.groups_total += field("groups_total");
                                }
                            }
                            Err(e) => {
                                p.results.push(Some(e));
                                break;
                            }
                        }
                    }
                }
                Err(e) => p.results.push(Some(format!("reader cannot connect: {e}"))),
            }
            p.pacing(&pacer);
            (p, trace::finish())
        });
        let reader = reader.join().unwrap_or_else(|_| {
            let mut p = Phase::default();
            p.results.push(Some("reader panicked".to_owned()));
            (p, Vec::new())
        });
        let writer = writer.map(|w| {
            w.join().unwrap_or_else(|_| {
                let mut p = Phase::default();
                p.results.push(Some("writer panicked".to_owned()));
                (p, Vec::new())
            })
        });
        (reader, writer)
    });
    let (mut phase, reader_spans) = reader;
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.spans = reader_spans;
    if let Some((w, writer_spans)) = writer {
        phase.absorb_pacing(&w);
        phase.ingests = w.ingests;
        phase.writes = w.writes;
        phase.results.extend(w.results);
        trace::append(&mut phase.spans, writer_spans);
    }
    phase
}

/// Median µs of `reps` in-process `handle` calls of `line`.
fn handle_us(state: &ServeState, line: &str, reps: usize) -> (f64, bool) {
    let mut t = Samples::default();
    let mut ok = true;
    for _ in 0..reps {
        let started = Instant::now();
        let reply = trace::span("serve.state.handle", || state.handle(line));
        t.push(started.elapsed().as_secs_f64() * 1e6);
        ok &= reply.starts_with("{\"ok\":true");
    }
    (t.median(), ok)
}

/// Quiescent single-layer probes on a private state: `handle` per
/// command, request parsing, and the incremental engine.
fn probes(seed: u64, path: &Path, out: &mut Outcome) {
    let sim = Simulation::new(SimConfig::with_seed(seed));
    let archive = archive_span(&sim);
    let store = match mira_store::open_archive(path) {
        Ok(s) => s,
        Err(e) => {
            out.op(Some(format!("probe archive: {e}")));
            return;
        }
    };
    let state = match ServeState::new(sim, STEP) {
        Ok(s) => s.with_store(store),
        Err(e) => {
            out.op(Some(format!("probe state: {e}")));
            return;
        }
    };
    let prefill = state.handle(&format!(
        "{{\"cmd\":\"ingest\",\"steps\":{},\"id\":0}}",
        4 * INGEST_STEPS
    ));
    out.op((!prefill.starts_with("{\"ok\":true")).then(|| format!("probe prefill: {prefill}")));
    let mut rng = Rng::new(seed ^ 0x5EED);
    let replay = loop {
        let q = next_query(&mut rng, 1, archive);
        if q.replay_rows.is_some() {
            break q.line;
        }
    };
    let lines: [(&'static str, String, usize); 6] = [
        (
            "serve.state.handle_us.status",
            "{\"cmd\":\"status\",\"id\":1}".to_owned(),
            200,
        ),
        (
            "serve.state.handle_us.metrics",
            "{\"cmd\":\"metrics\",\"id\":1}".to_owned(),
            50,
        ),
        (
            "serve.state.handle_us.report",
            "{\"cmd\":\"report\",\"id\":1}".to_owned(),
            50,
        ),
        (
            "serve.state.handle_us.figure",
            "{\"cmd\":\"figure\",\"figure\":\"fig4\",\"id\":1}".to_owned(),
            50,
        ),
        ("serve.state.handle_us.replay", replay, 50),
        (
            "serve.state.handle_us.ingest",
            format!("{{\"cmd\":\"ingest\",\"steps\":{INGEST_STEPS},\"id\":1}}"),
            10,
        ),
    ];
    let mut parse = Samples::default();
    for (name, line, reps) in &lines {
        let (us, ok) = handle_us(&state, line, *reps);
        out.set(name, us);
        out.op((!ok).then(|| format!("probe {name}: error reply")));
        for _ in 0..100 {
            let started = Instant::now();
            let parsed = std::hint::black_box(parse_request(std::hint::black_box(line)));
            parse.push(started.elapsed().as_secs_f64() * 1e6);
            if parsed.is_err() {
                out.op(Some(format!("probe {name}: request does not parse")));
            }
        }
    }
    out.set("serve.protocol.parse_us", parse.median());

    let sim = state.simulation();
    match IncrementalSweep::builder(sim.config().span().0)
        .step(STEP)
        .build()
    {
        Ok(mut inc) => {
            let mut ingest = Samples::default();
            let mut summary = Samples::default();
            for _ in 0..10 {
                let started = Instant::now();
                let r = trace::span("core.incremental.ingest", || {
                    inc.ingest(sim.telemetry(), INGEST_STEPS as usize)
                });
                ingest.push(started.elapsed().as_secs_f64() * 1e9 / INGEST_STEPS as f64);
                let started = Instant::now();
                let s = trace::span("core.incremental.summary", || inc.summary());
                summary.push(started.elapsed().as_secs_f64() * 1e6);
                out.op(r.and(s).err().map(|e| format!("incremental probe: {e}")));
            }
            out.set("core.incremental.ingest_ns_per_instant", ingest.median());
            out.set("core.incremental.summary_us", summary.median());
        }
        Err(e) => out.op(Some(format!("incremental probe: {e}"))),
    }
}

fn p90(s: &Samples) -> f64 {
    s.tail(0.9).unwrap_or(f64::NAN)
}

fn absorb(out: &mut Outcome, phase: &mut Phase, replay: &mut ReplayTotals) {
    for r in phase.results.drain(..) {
        out.op(r);
    }
    trace::append(&mut out.spans, std::mem::take(&mut phase.spans));
    replay.returned += phase.replay.returned;
    replay.rows_scanned += phase.replay.rows_scanned;
    replay.groups_scanned += phase.replay.groups_scanned;
    replay.groups_total += phase.replay.groups_total;
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = checkout_root().join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.op(Some(format!("cannot create {}: {e}", dir.display())));
        return out;
    }
    let path: PathBuf = dir.join(format!("serve-live-{}.mstore", std::process::id()));
    let result = run_with_archive(seed, seconds, traced, &path, &mut out);
    let _ = std::fs::remove_file(&path);
    if let Err(e) = result {
        out.op(Some(e));
    }
    out
}

fn run_with_archive(
    seed: u64,
    seconds: u64,
    traced: bool,
    path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let run_started = Instant::now();
    let budget = StdDuration::from_secs(seconds);
    let mut times = SetupTimes::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        ready = Some(times.time(seed, path)?);
    }
    let Setup {
        state, listener, ..
    } = ready.ok_or("no set-up")?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let archive = archive_span(state.simulation());

    let origin = traced.then(Instant::now);
    if let Some(origin) = origin {
        trace::start(origin);
        probes(seed, path, out);
        trace::append(&mut out.spans, trace::finish());
    }

    // The reader's figure and report queries need a non-empty sweep.
    let prefill = state.handle(&format!(
        "{{\"cmd\":\"ingest\",\"steps\":{INGEST_STEPS},\"id\":0}}"
    ));
    out.op((!prefill.starts_with("{\"ok\":true")).then(|| format!("prefill: {prefill}")));

    let hydro_before = state.simulation().telemetry().hydro_cache_stats();
    let writes = (seconds * 20).min(MAX_WRITES);
    let mut rng = Rng::new(seed);
    let mut next_id = 1;
    let mut replay = ReplayTotals::default();
    let mut ingested = INGEST_STEPS;
    let final_checks: Result<(), String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&state, &listener));
        let mut live = |out: &mut Outcome| -> Result<(), String> {
            if !traced {
                let mut p = live_phase(addr, &mut rng, &mut next_id, writes, budget, archive, None);
                ingested += p.writes * INGEST_STEPS;
                absorb(out, &mut p, &mut replay);
                out.set("latency_p50_ms", p.queries.median());
                out.set("throughput_per_s", p.queries.len() as f64 / p.wall_s);
                out.extra.push(("latency_p90_ms", p90(&p.queries), "ms"));
                out.extra.push(("ingest_p50_ms", p.ingests.median(), "ms"));
                return Ok(());
            }
            // Traced: status round trips on an idle server, then a
            // reader-only phase, an untraced and a traced mixed phase.
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            let mut rtt = Samples::default();
            for i in 0..20 {
                let id = 900_000 + i;
                let sent = Instant::now();
                let r = c
                    .call(&format!("{{\"cmd\":\"status\",\"id\":{id}}}"))
                    .map(str::to_owned);
                rtt.push(ms(sent.elapsed()));
                out.op(r.and_then(|r| check_reply(&r, id, None)).err());
            }
            drop(c);
            let handle_ms = out
                .values
                .get("serve.state.handle_us.status")
                .copied()
                .unwrap_or(0.0)
                / 1e3;
            out.set("serve.server.transport_ms", rtt.median() - handle_ms);
            let third = budget / 3;
            let mut a = live_phase(addr, &mut rng, &mut next_id, 0, third, archive, origin);
            absorb(out, &mut a, &mut replay);
            let mut b = live_phase(
                addr,
                &mut rng,
                &mut next_id,
                writes / 3,
                third,
                archive,
                None,
            );
            absorb(out, &mut b, &mut replay);
            let mut c = live_phase(
                addr,
                &mut rng,
                &mut next_id,
                writes / 3,
                third,
                archive,
                origin,
            );
            absorb(out, &mut c, &mut replay);
            ingested += (b.writes + c.writes) * INGEST_STEPS;
            out.set(
                "serve.state.lock_wait_p90_ms",
                p90(&c.queries) - p90(&a.queries),
            );
            out.set(
                "trace.overhead_ratio",
                c.queries.median() / b.queries.median() - 1.0,
            );
            // Every paced send of the three phases, both clients: a
            // client's own delay does not depend on the phase, and the
            // p90 needs 100 sends.
            let mut sends = Phase::default();
            for phase in [&a, &b, &c] {
                sends.absorb_pacing(phase);
            }
            out.set("loadgen.lag_p90_ms", p90(&sends.lags_ms));
            out.set(
                "loadgen.late_ratio",
                ratio(sends.late, sends.lags_ms.len() as u64),
            );
            Ok(())
        };
        let live_result = live(out);
        // The served aggregate must equal a cold state that ingested the
        // same span in one request.
        let report = "{\"cmd\":\"report\",\"id\":777}";
        let served = Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                let r = c.call(report)?.to_owned();
                let bye = c.call("{\"cmd\":\"shutdown\",\"id\":778}")?.to_owned();
                check_reply(&bye, 778, None)?;
                Ok(r)
            });
        state.request_shutdown();
        let joined = server.join();
        live_result?;
        let served = served?;
        if !matches!(joined, Ok(Ok(()))) {
            return Err("serve_tcp did not end cleanly".to_owned());
        }
        let cold = ServeState::new(Simulation::new(SimConfig::with_seed(seed)), STEP)
            .map_err(|e| e.to_string())?;
        let _ = cold.handle(&format!(
            "{{\"cmd\":\"ingest\",\"steps\":{ingested},\"id\":0}}"
        ));
        let expected = cold.handle(report);
        if served != expected {
            return Err(format!(
                "final report differs from a cold state: {served} vs {expected}"
            ));
        }
        Ok(())
    });
    out.op(final_checks.err());
    out.set(
        "cooling.hydro_memo_hit_ratio",
        hydro_hit_ratio(state.simulation().telemetry(), hydro_before),
    );
    out.set(
        "store.replay_decoded_per_returned",
        ratio(replay.rows_scanned, replay.returned),
    );
    out.set(
        "store.groups_scanned_ratio",
        ratio(replay.groups_scanned, replay.groups_total),
    );
    // What the serving process peaked at; the set-ups below would add
    // what the live phases left fragmented.
    out.set("peak_rss_mb", peak_rss_mb());
    // The live phases end before the run's time is up; the rest of it
    // sets up again, with the served state gone, so the set-up median
    // spans the run rather than only its first seconds.
    drop(state);
    drop(listener);
    while run_started.elapsed() < budget {
        drop(times.time(seed, path)?);
    }
    times.report(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_must_be_ok_and_echo_their_id() {
        assert!(check_reply("{\"ok\":true,\"id\":7,\"x\":1}", 7, None).is_ok());
        assert!(
            check_reply("{\"ok\":true,\"id\":8}", 7, None).is_err(),
            "wrong id"
        );
        assert!(check_reply("{\"ok\":false,\"id\":7,\"error\":{}}", 7, None).is_err());
        assert!(
            check_reply("{\"ok\":true,\"id\":7", 7, None).is_err(),
            "truncated"
        );
        assert!(check_reply("{\"ok\":true,\"id\":7,\"returned\":100}", 7, Some(100)).is_ok());
        assert!(
            check_reply("{\"ok\":true,\"id\":7,\"returned\":99}", 7, Some(100)).is_err(),
            "a short replay is a failure"
        );
    }

    #[test]
    fn replay_queries_stay_inside_the_archive() {
        let from = SimTime::from_epoch_seconds(1_388_534_400);
        let archive = (from, from + Duration::from_days(7 * ARCHIVE_WEEKS));
        let mut rng = Rng::new(3);
        let mut replays = 0;
        for id in 0..500 {
            let q = next_query(&mut rng, id, archive);
            let Some(rows) = q.replay_rows else { continue };
            replays += 1;
            let doc = Json::parse(&q.line).expect("valid request");
            let lo = doc.get("from").and_then(Json::as_u64).expect("from");
            let hi = doc.get("to").and_then(Json::as_u64).expect("to");
            assert!(lo < hi);
            assert!(hi <= u64::try_from(archive.1.epoch_seconds()).expect("positive"));
            assert_eq!(rows, ((hi - lo) / 300 * RACKS).min(REPLAY_LIMIT));
            assert!(parse_request(&q.line).is_ok());
        }
        assert!(replays > 50, "the mix holds replays");
    }

    #[test]
    fn a_short_live_run_is_correct() {
        let dir = checkout_root()
            .join(".bench_out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut out = Outcome::default();
        let r = run_with_archive(5, 1, false, &dir.join("a.mstore"), &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(r, Ok(()));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted > 20);
        assert!(out.values["throughput_per_s"] > 0.0);
    }
}
