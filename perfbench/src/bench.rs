//! One run of one workload: set-up, the timed phase, and the durable
//! epilogue (last compaction, cold starts, a WAL tail and restarts), with
//! every answer checked against an exact baseline.
//!
//! The benchmark drives the program from one thread as one closed-loop
//! client: each call starts when the previous one returned.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdq_baselines::{BrsIndex, SeqScan, TaIndex};
use sdq_core::telemetry::{HistoSnapshot, Telemetry};
use sdq_core::{Dataset, DimRole, PointId, QueryProfile, ScoredPoint, SdError, SdQuery};
use sdq_engine::{EngineOptions, EngineScratch, MetricsSnapshot, SdEngine};
use sdq_store::{DiskStorage, DurableEngine, DurableOptions, Snapshot};

use crate::check::{by_id, digest_answer, verify, Keyed, Mirror};
use crate::clock::{Stopwatch, Took};
use crate::stats::{mean, median, percentile, ratio, Samples, Timings};
use crate::trace::Tracer;
use crate::workload::{
    generate_data, generate_insert_rows, generate_queries, query_digest, Digest, Kind, Op,
    OpStream, Seeds, Spec, COMPACT_EVERY_DIVISOR, K, QUERY_POOL, READ_PCT,
};

const SNAP: &str = "db.sdq";
const WAL: &str = "db.sdq.wal";

/// Set-ups per run; their median is `setup_s`. A traced run alternates
/// untraced and traced set-ups and makes one more.
const SETUPS: usize = 3;
/// Queries answered by the engine and all three exact baselines before the
/// timed phase; their answers make the run's answer digest.
const BASELINE_QUERIES: usize = 32;
/// Every this many timed reads, SeqScan (and, on a read workload, TA) also
/// answers and is compared.
const SEQSCAN_EVERY: usize = 64;
/// Every this many sampled writes, one fsync probe; see
/// [`Bench::fsync_probe`].
const FSYNC_PROBE_EVERY: u64 = 8;
/// Bytes of one fsync probe: about one WAL insert record.
const PROBE_BYTES: usize = 40;
/// Reads per batch on the read workloads; see [`Bench::read_batch`].
const READ_BATCH: usize = 16;
/// Length of one cycle of the timed phase, and the share of its read time
/// given to the main block; the rest measures back-to-back throughput.
const CYCLE_SECONDS: f64 = 2.0;
const MAIN_SHARE: f64 = 0.75;
/// Throughput is timed in chunks of this many queries; a traced run
/// alternates traced and untraced chunks.
const THROUGHPUT_CHUNK: usize = 32;
/// Distinct queries of each `durable-mixed` throughput block, checked
/// against BRS before its clock starts.
const MIXED_THROUGHPUT_QUERIES: usize = 32;
/// Durable writes at the start of each cycle on a read workload: inserts
/// and deletes at 2 : 1, compacting as due.
const WRITES_PER_CYCLE: usize = 1000;
/// Writes logged after the last checkpoint, which every restart replays.
const TAIL_WRITES: u64 = 400;
/// Cold starts after the last compaction; every cycle of the timed phase
/// also makes one.
const COLD_STARTS: usize = 3;
/// Reopens after the final stop; every cycle of the timed phase also
/// reopens the live store once.
const RESTARTS: usize = 3;
/// Queries checked against the mirror after each restart.
const RESTART_QUERIES: usize = 2;

pub struct Config {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of the durable store; the caller removes it.
    pub dir: PathBuf,
}

impl Config {
    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }
}

/// One end-to-end or per-layer figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Raw samples behind the value (1 for a single measurement).
    pub samples: usize,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
    }
}

/// Per-query profile counters of the traced timed reads, summed. The
/// names are the per-layer metric names of their per-query means.
const PROFILE_COUNTERS: [&str; 14] = [
    "multidim.nodes_visited",
    "multidim.blocks_popped",
    "multidim.blocks_floor_pruned",
    "multidim.rows_fetched",
    "multidim.points_gathered",
    "multidim.rounds",
    "multidim.floor_updates",
    "multidim.seen_hits",
    "kernels.points_scored",
    "kernels.batches",
    "delta.rows_scanned",
    "delta.blocks_pruned",
    "mask.tombstones_skipped",
    "mask.lanes_masked",
];

#[derive(Debug, Default)]
struct ProfileSums {
    reads: f64,
    live_rows: f64,
    query_nanos: f64,
    counters: [f64; PROFILE_COUNTERS.len()],
    emitted: f64,
    aggregate_nanos: f64,
    delta_scan_nanos: f64,
    merge_nanos: f64,
}

impl ProfileSums {
    fn add(&mut self, p: &QueryProfile, live_rows: usize, query: Duration) {
        let v = [
            p.nodes_visited,
            p.blocks_popped,
            p.blocks_floor_pruned,
            p.rows_fetched,
            p.points_gathered,
            p.rounds,
            p.floor_updates,
            p.seen_hits,
            p.points_scored,
            p.kernel_batches,
            p.delta_rows_scanned,
            p.delta_blocks_pruned,
            p.tombstones_skipped,
            p.lanes_masked,
        ];
        for (s, x) in self.counters.iter_mut().zip(v) {
            *s += x as f64;
        }
        self.reads += 1.0;
        self.live_rows += live_rows as f64;
        self.query_nanos += query.as_nanos() as f64;
        self.emitted += p.emitted as f64;
        self.aggregate_nanos += p.aggregate_nanos as f64;
        self.delta_scan_nanos += p.delta_scan_nanos as f64;
        self.merge_nanos += p.merge_nanos as f64;
    }

    fn counter(&self, name: &str) -> f64 {
        let i = PROFILE_COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("a listed profile counter");
        self.counters[i]
    }

    fn per_read(&self, sum: f64) -> f64 {
        ratio(sum, self.reads)
    }
}

/// The telemetry histograms whose deltas the traced run reports.
#[derive(Debug, Clone, Copy, Default)]
struct Histos {
    wal_append: HistoSnapshot,
    wal_fsync: HistoSnapshot,
    checkpoint: HistoSnapshot,
    compaction: HistoSnapshot,
}

impl Histos {
    fn now() -> Self {
        let t = Telemetry::global();
        Histos {
            wal_append: t.wal_append.snapshot(),
            wal_fsync: t.wal_fsync.snapshot(),
            checkpoint: t.checkpoint.snapshot(),
            compaction: t.compaction.snapshot(),
        }
    }
}

/// Mean nanoseconds of the events recorded between two snapshots.
fn delta_mean_ns(before: &HistoSnapshot, after: &HistoSnapshot) -> f64 {
    ratio(
        after.sum_nanos().saturating_sub(before.sum_nanos()) as f64,
        after.count().saturating_sub(before.count()) as f64,
    )
}

/// Queries and time of the throughput blocks, on both clocks.
#[derive(Debug, Default)]
struct Throughput {
    queries: f64,
    cpu_s: f64,
    wall_s: f64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub tracer: Tracer,
    pub query_digest: u64,
    pub answer_digest: u64,
    setup_s: Timings,
    query_ms: Timings,
    brs_ms: Timings,
    /// Durable writes and the fsync probe wait on the disk: wall time.
    write_us: Samples,
    fsync_us: Samples,
    compact_ms: Timings,
    recover_ms: Timings,
    cold_ms: Timings,
    /// Throughput blocks, [untraced, traced].
    throughput: [Throughput; 2],
    throughput_chunks: usize,
    profile: ProfileSums,
    memory_bytes: f64,
    index_bytes_per_row: f64,
    disk_bytes_per_row: f64,
    snapshot_bytes: f64,
    writes: u64,
    wal_before: MetricsSnapshot,
    wal_after: MetricsSnapshot,
    histos_before: Histos,
    histos_after: Histos,
    replayed: Vec<f64>,
    /// Lazy CRC verification time of each cold start.
    verify_ms: Vec<f64>,
}

impl Run {
    /// Counts one checked operation; `true` when it succeeded.
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    fn set_index_bytes(&mut self, engine: &SdEngine) {
        self.memory_bytes = engine.memory_bytes() as f64;
        self.index_bytes_per_row = ratio(self.memory_bytes, engine.len() as f64);
    }

    /// The gated end-to-end metrics (those of `BENCHMARK.json`) over the
    /// traced or the untraced operations: on-CPU times (see
    /// [`crate::clock`]), and the write/fsync ratio of wall times.
    pub fn end_to_end(&self, traced: bool) -> Vec<Metric> {
        let w = self.write_us.side(traced);
        let f = self.fsync_us.side(traced);
        let mut out = self.timed(traced, false);
        out.insert(
            5,
            metric(
                "write_over_fsync",
                "ratio",
                ratio(median(w), median(f)),
                w.len().min(f.len()),
            ),
        );
        out.extend([
            metric("index_bytes_per_row", "bytes", self.index_bytes_per_row, 1),
            metric("disk_bytes_per_row", "bytes", self.disk_bytes_per_row, 1),
        ]);
        out
    }

    /// The timed end-to-end metrics on one clock. The wall-clock ones
    /// carry a `_wall` tag.
    fn timed(&self, traced: bool, wall: bool) -> Vec<Metric> {
        let side = |t: &Timings| -> Vec<f64> {
            let s = if wall { &t.wall } else { &t.cpu };
            s.side(traced).to_vec()
        };
        let tag = |name: &str, unit: &str| match (wall, unit) {
            (false, _) => name.to_string(),
            (true, "") => format!("{name}_wall"),
            (true, unit) => format!("{}_wall_{unit}", &name[..name.len() - unit.len() - 1]),
        };
        let setup = side(&self.setup_s);
        let q = side(&self.query_ms);
        let b = side(&self.brs_ms);
        let c = side(&self.compact_ms);
        let r = side(&self.recover_ms);
        let cold = side(&self.cold_ms);
        let t = &self.throughput[usize::from(traced)];
        let secs = if wall { t.wall_s } else { t.cpu_s };
        vec![
            metric(&tag("setup_s", "s"), "s", median(&setup), setup.len()),
            metric(&tag("query_p50_ms", "ms"), "ms", median(&q), q.len()),
            metric(
                &tag("query_p90_ms", "ms"),
                "ms",
                percentile(&q, 0.90),
                q.len(),
            ),
            metric(
                &tag("query_qps", ""),
                "1/s",
                ratio(t.queries, secs),
                t.queries as usize,
            ),
            metric(
                &tag("engine_over_brs", ""),
                "ratio",
                ratio(median(&q), median(&b)),
                q.len().min(b.len()),
            ),
            metric(&tag("compact_ms", "ms"), "ms", median(&c), c.len()),
            metric(&tag("recover_ms", "ms"), "ms", median(&r), r.len()),
            metric(
                &tag("cold_first_answer_ms", "ms"),
                "ms",
                median(&cold),
                cold.len(),
            ),
        ]
    }

    /// End-to-end figures that are reported but not gated. On a shared
    /// host the run-to-run spread of the first ones exceeds any usable
    /// bound: the p99 catches host stalls and fsync tails, and write and
    /// fsync latency follow the shared disk, which `write_over_fsync`
    /// cancels out. A correct run's `failed_ops_frac` is 0. Last come the
    /// wall-clock counterparts of the gated on-CPU times.
    pub fn ungated(&self) -> Vec<Metric> {
        let q = self.query_ms.cpu.side(false);
        let w = self.write_us.side(false);
        let f = self.fsync_us.side(false);
        let mut out = vec![
            metric("query_p99_ms", "ms", percentile(q, 0.99), q.len()),
            metric("write_p50_us", "us", median(w), w.len()),
            metric("write_p99_us", "us", percentile(w, 0.99), w.len()),
            metric("fsync_p50_us", "us", median(f), f.len()),
            metric(
                "failed_ops_frac",
                "ratio",
                ratio(self.failed as f64, self.attempted as f64),
                self.attempted as usize,
            ),
        ];
        out.extend(self.timed(false, true));
        out
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        let tr = &self.tracer;
        let p = &self.profile;
        let reads = p.reads as usize;
        let span_ms = |name: &str| (tr.mean_ms(name), tr.calls(name));
        let mut out = Vec::new();
        let mut span = |name: &str, unit: &'static str, scale: f64, span_name: &str| {
            let (v, n) = span_ms(span_name);
            out.push(metric(name, unit, v * scale, n));
        };
        span("engine.query_ms", "ms", 1.0, "engine.query");
        span("engine.plan_us", "us", 1e3, "engine.plan");
        span("durable.insert_us", "us", 1e3, "durable.insert");
        span("durable.delete_us", "us", 1e3, "durable.delete");
        span("store.decode_ms", "ms", 1.0, "store.decode");
        span("store.open_mapped_ms", "ms", 1.0, "store.open_mapped");
        span("store.first_query_ms", "ms", 1.0, "store.first_query");
        span("data.generate_s", "s", 1e-3, "data.generate");
        span("engine.build_s", "s", 1e-3, "engine.build");
        span("baselines.build_s", "s", 1e-3, "baselines.build");
        span("store.create_s", "s", 1e-3, "store.create");
        span("baselines.brs_ms", "ms", 1.0, "baselines.brs");
        span("baselines.seqscan_ms", "ms", 1.0, "baselines.seqscan");
        span("baselines.ta_ms", "ms", 1.0, "baselines.ta");

        out.push(metric(
            "engine.aggregate_ms",
            "ms",
            p.per_read(p.aggregate_nanos) / 1e6,
            reads,
        ));
        out.push(metric(
            "engine.delta_scan_ms",
            "ms",
            p.per_read(p.delta_scan_nanos) / 1e6,
            reads,
        ));
        out.push(metric(
            "engine.merge_ms",
            "ms",
            p.per_read(p.merge_nanos) / 1e6,
            reads,
        ));
        let staged = p.aggregate_nanos + p.delta_scan_nanos + p.merge_nanos;
        out.push(metric(
            "engine.stage_coverage",
            "ratio",
            ratio(staged, p.query_nanos),
            reads,
        ));
        out.push(metric("engine.memory_bytes", "bytes", self.memory_bytes, 1));
        for name in PROFILE_COUNTERS {
            out.push(metric(name, "count", p.per_read(p.counter(name)), reads));
        }
        let fetched = p.counter("multidim.rows_fetched");
        out.push(metric(
            "multidim.fetch_yield",
            "ratio",
            ratio(p.emitted, fetched),
            reads,
        ));
        out.push(metric(
            "multidim.prune_ratio",
            "ratio",
            1.0 - ratio(fetched, p.live_rows),
            reads,
        ));

        let (a, b) = (&self.wal_before, &self.wal_after);
        let writes = self.writes as f64;
        let w = self.writes as usize;
        out.push(metric(
            "wal.syncs_per_write",
            "ratio",
            ratio((b.wal_syncs - a.wal_syncs) as f64, writes),
            w,
        ));
        let bytes = (b.wal_bytes_appended - a.wal_bytes_appended) as f64;
        out.push(metric(
            "wal.bytes_per_write",
            "bytes",
            ratio(bytes, writes),
            w,
        ));
        out.push(metric(
            "wal.retries",
            "count",
            (b.retries_attempted - a.retries_attempted) as f64,
            w,
        ));
        let (h0, h1) = (&self.histos_before, &self.histos_after);
        let n = |x: &HistoSnapshot, y: &HistoSnapshot| y.count().saturating_sub(x.count()) as usize;
        out.push(metric(
            "wal.append_us",
            "us",
            delta_mean_ns(&h0.wal_append, &h1.wal_append) / 1e3,
            n(&h0.wal_append, &h1.wal_append),
        ));
        out.push(metric(
            "wal.fsync_us",
            "us",
            delta_mean_ns(&h0.wal_fsync, &h1.wal_fsync) / 1e3,
            n(&h0.wal_fsync, &h1.wal_fsync),
        ));
        out.push(metric(
            "mutation.compact_ms",
            "ms",
            delta_mean_ns(&h0.compaction, &h1.compaction) / 1e6,
            n(&h0.compaction, &h1.compaction),
        ));
        out.push(metric(
            "durable.checkpoint_ms",
            "ms",
            delta_mean_ns(&h0.checkpoint, &h1.checkpoint) / 1e6,
            n(&h0.checkpoint, &h1.checkpoint),
        ));
        out.push(metric(
            "wal.replay_records",
            "count",
            mean(&self.replayed),
            self.replayed.len(),
        ));
        out.push(metric(
            "store.snapshot_bytes",
            "bytes",
            self.snapshot_bytes,
            1,
        ));
        out.push(metric(
            "store.verify_ms",
            "ms",
            mean(&self.verify_ms),
            self.verify_ms.len(),
        ));

        // Tracing overhead: traced minus untraced, over interleaved
        // operations; 0 over 0 samples when one side saw none.
        for (t, u) in self
            .end_to_end(true)
            .into_iter()
            .zip(self.end_to_end(false))
        {
            if t.unit != "bytes" {
                let name = format!("overhead.{}", t.name);
                let diff = t.value - u.value;
                let (value, samples) = if diff.is_finite() {
                    (diff, t.samples.min(u.samples))
                } else {
                    (0.0, 0)
                };
                out.push(metric(&name, t.unit, value, samples));
            }
        }
        out
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn answer_digest(answer: &[ScoredPoint]) -> u64 {
    let mut d = Digest::default();
    digest_answer(&mut d, &by_id(answer));
    d.value()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(err(&path.display().to_string()))
}

/// The state of one run between set-up and the restarts.
struct Bench<'c> {
    cfg: &'c Config,
    roles: Vec<DimRole>,
    queries: Vec<SdQuery>,
    insert_rows: Dataset,
    next_row: usize,
    durable: DurableEngine,
    /// The client's exact view of `durable`.
    mirror: Mirror,
    /// On a read workload, copies of the engine and the BRS index as set-up
    /// built them: the timed reads query these, so they never see the
    /// writes that exercise the durable layer in the same cycles.
    clean: Option<(SdEngine, BrsIndex)>,
    ta: TaIndex,
    seq: SeqScan,
    scratch: EngineScratch,
    /// Append-only file of the fsync probe, in the run's scratch directory.
    probe: std::fs::File,
    compact_at: usize,
    /// Position of the throughput blocks in the checked queries. It runs
    /// on across blocks, so the blocks of a run together cover many
    /// distinct queries rather than the first few again and again.
    throughput_next: usize,
    run: Run,
}

/// Runs one workload. `Err` means the run could not go on (a set-up step
/// failed); wrong answers are counted in [`Run::failed`] instead.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let spec = &cfg.spec;
    let seeds = Seeds::new(cfg.seed);
    let roles = sdq_store::parse_roles(spec.roles).map_err(err("roles"))?;
    let mut run = Run::default();

    let setups = if cfg.trace { SETUPS + 1 } else { SETUPS };
    let mut built = None;
    for r in 0..setups {
        drop(built.take());
        let _ = std::fs::remove_dir_all(cfg.store_dir());
        let traced = cfg.trace && r % 2 == 1;
        let sw = Stopwatch::start();
        built = Some(setup(cfg, &seeds, &roles, &mut run.tracer, traced)?);
        run.setup_s.push(traced, sw.took(), 1.0);
    }
    let (data, durable, brs, ta, seq) = built.expect("at least one set-up ran");
    let queries = generate_queries(spec, &seeds);
    run.query_digest = query_digest(&queries);
    run.set_index_bytes(durable.engine());

    let clean = (spec.kind == Kind::Reads).then(|| (durable.engine().clone(), brs.clone()));
    let mut b = Bench {
        cfg,
        clean,
        roles,
        queries,
        insert_rows: generate_insert_rows(spec, &seeds),
        next_row: 0,
        durable,
        mirror: Mirror::new(brs, &data),
        ta,
        seq,
        scratch: EngineScratch::new(),
        probe: std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(cfg.dir.join("fsync-probe"))
            .map_err(err("fsync probe file"))?,
        compact_at: (spec.n / COMPACT_EVERY_DIVISOR).max(1),
        throughput_next: 0,
        run,
    };
    drop(data);
    b.baseline_pass();
    b.run.histos_before = Histos::now();
    b.run.wal_before = b.durable.engine().metrics().snapshot();
    b.timed_phase(&seeds);
    b.compact(cfg.trace);
    if spec.kind == Kind::Mixed {
        // Measured once the delta is folded in: a dirty engine's footprint
        // depends on where in its compaction cycle the run stopped.
        b.run.set_index_bytes(b.durable.engine());
    }
    for c in 0..COLD_STARTS {
        b.cold_start(c, cfg.trace && c % 2 == 1);
    }
    b.wal_tail(&seeds)?;
    b.restarts()
}

type Built = (Arc<Dataset>, DurableEngine, BrsIndex, TaIndex, SeqScan);

/// The engine the timed reads query: the clean copy on a read workload.
fn read_engine<'a>(
    clean: &'a Option<(SdEngine, BrsIndex)>,
    durable: &'a DurableEngine,
) -> &'a SdEngine {
    match clean {
        Some((engine, _)) => engine,
        None => durable.engine(),
    }
}

/// Generates the data, builds the engine and the baselines, and writes the
/// first snapshot: what `setup_s` times.
fn setup(
    cfg: &Config,
    seeds: &Seeds,
    roles: &[DimRole],
    tr: &mut Tracer,
    traced: bool,
) -> Result<Built, String> {
    tr.request(traced);
    let root = tr.begin("setup");
    let data = Arc::new(tr.span("data.generate", || generate_data(&cfg.spec, seeds)));
    let engine = tr
        .span("engine.build", || {
            SdEngine::build_with(Arc::clone(&data), roles, &EngineOptions::default())
        })
        .map_err(err("engine build"))?;
    let (brs, ta, seq) = tr
        .span("baselines.build", || {
            Ok::<_, SdError>((
                BrsIndex::build(&data, roles)?,
                TaIndex::build(Arc::clone(&data), roles)?,
                SeqScan::new(Arc::clone(&data), roles)?,
            ))
        })
        .map_err(err("baseline build"))?;
    let durable = tr.span("store.create", || {
        let storage = DiskStorage::new(cfg.store_dir()).map_err(err("store dir"))?;
        DurableEngine::create(storage, SNAP, engine, DurableOptions::default())
            .map_err(err("durable create"))
    })?;
    tr.end(root);
    Ok((data, durable, brs, ta, seq))
}

impl Bench<'_> {
    /// Engine, BRS, SeqScan and TA on the first queries of the pool: a full
    /// cross-check before any timing, and the answers of the run's digest.
    fn baseline_pass(&mut self) {
        let k = K;
        let mut digest = Digest::default();
        for q in &self.queries[..BASELINE_QUERIES] {
            let tr = &mut self.run.tracer;
            tr.request(self.cfg.trace);
            let root = tr.begin("op.baseline");
            let engine = self.durable.engine();
            let got = engine
                .query_with(q, k, &mut self.scratch)
                .map(<[ScoredPoint]>::to_vec);
            let want = [
                (
                    "BRS",
                    tr.span("baselines.brs", || self.mirror.brs.query(q, k)),
                ),
                (
                    "SeqScan",
                    tr.span("baselines.seqscan", || self.seq.query(q, k)),
                ),
                ("TA", tr.span("baselines.ta", || self.ta.query(q, k))),
            ];
            tr.end(root);
            let outcome = (|| {
                let got = got.map_err(err("engine"))?;
                let keyed = by_id(&got);
                for (name, w) in want {
                    let w = w.map_err(err(name))?;
                    verify(
                        &format!("baseline pass, engine vs {name}"),
                        &got,
                        &keyed,
                        &by_id(&w),
                    )?;
                }
                digest_answer(&mut digest, &keyed);
                Ok(())
            })();
            self.run.record(outcome);
        }
        self.run.answer_digest = digest.value();
    }

    /// Checked reads of pool queries, each timed on its own: the engine
    /// answers the whole batch first (planning the traced ones), then BRS
    /// answers it, so neither evicts the other's working set between two
    /// timed calls. Every [`SEQSCAN_EVERY`]-th pool query is also answered
    /// by SeqScan, and on a read workload by TA. Returns per
    /// query the engine answer's digest and the engine and BRS latencies,
    /// or `None` when the read failed.
    fn read_batch(&mut self, batch: &[(usize, bool)]) -> Vec<Option<(u64, Took, Took)>> {
        let k = K;
        let engine = read_engine(&self.clean, &self.durable);
        let mut engine_side = Vec::with_capacity(batch.len());
        for &(qi, traced) in batch {
            let q = &self.queries[qi % QUERY_POOL];
            let tr = &mut self.run.tracer;
            let request = tr.request(traced);
            let root = tr.begin("op.query");
            let plan = if traced {
                tr.span("engine.plan", || engine.explain(q, k).map(|_| ()))
            } else {
                Ok(())
            };
            self.scratch.profile.timing = traced;
            let s = tr.begin("engine.query");
            let sw = Stopwatch::start();
            let got = engine
                .query_with(q, k, &mut self.scratch)
                .map(<[ScoredPoint]>::to_vec);
            let e = sw.took();
            tr.end(s);
            tr.end(root);
            if traced {
                self.run
                    .profile
                    .add(&self.scratch.profile, engine.len(), e.wall);
            }
            engine_side.push((request, plan.and(got), e));
        }
        let mut out = Vec::with_capacity(batch.len());
        for (&(qi, traced), (request, got, e)) in batch.iter().zip(engine_side) {
            let q = &self.queries[qi % QUERY_POOL];
            let tr = &mut self.run.tracer;
            tr.resume(request, traced);
            let root = tr.begin("op.check");
            let sw = Stopwatch::start();
            let want = tr.span("baselines.brs", || match &self.clean {
                Some((_, brs)) => brs.query(q, k).map(|a| by_id(&a)).map_err(err("BRS")),
                None => self.mirror.brs_answer(q, k),
            });
            let b = sw.took();
            let mut exact: Vec<(&str, Result<Keyed, String>)> = Vec::new();
            if qi % SEQSCAN_EVERY == 0 && self.clean.is_some() {
                let s = tr.span("baselines.seqscan", || self.seq.query(q, k));
                let t = tr.span("baselines.ta", || self.ta.query(q, k));
                exact.push(("SeqScan", s.map(|a| by_id(&a)).map_err(err("SeqScan"))));
                exact.push(("TA", t.map(|a| by_id(&a)).map_err(err("TA"))));
            } else if qi % SEQSCAN_EVERY == 0 {
                // The durable engine's rows change: scan the mirror's live rows.
                let (rows, keys) = self.mirror.live_dataset();
                let s = tr.span("baselines.seqscan", || {
                    SeqScan::new(rows, &self.roles).and_then(|scan| scan.query(q, k))
                });
                let keyed = s
                    .map(|a| a.iter().map(|p| (keys[p.id.index()], p.score)).collect())
                    .map_err(err("SeqScan"));
                exact.push(("SeqScan", keyed));
            }
            tr.end(root);
            let outcome = (|| {
                let got = got.map_err(err("engine"))?;
                let keyed = match self.clean {
                    Some(_) => by_id(&got),
                    None => self.mirror.keyed(&got)?,
                };
                verify("engine vs BRS", &got, &keyed, &want?)?;
                for (name, w) in exact {
                    verify(&format!("engine vs {name}"), &got, &keyed, &w?)?;
                }
                Ok(answer_digest(&got))
            })();
            out.push(self.run.record(outcome).map(|d| (d, e, b)));
        }
        out
    }

    /// The timed phase: `--seconds` in cycles of [`CYCLE_SECONDS`], so every
    /// figure samples the host over the whole run rather than one stretch
    /// of it. A cycle makes, on a read workload, [`WRITES_PER_CYCLE`]
    /// durable writes, then one reopen of the live store and one cold
    /// start; what is left of it goes to a main block (checked latency
    /// reads of the clean engine, or the durable mix) and a throughput
    /// block, [`MAIN_SHARE`] to the first.
    fn timed_phase(&mut self, seeds: &Seeds) {
        let cycles = (self.cfg.seconds / CYCLE_SECONDS).round().max(1.0);
        let cycle_len = Duration::from_secs_f64(self.cfg.seconds / cycles);
        let read_pct = if self.clean.is_some() { 0 } else { READ_PCT };
        let mut ops = OpStream::new(seeds.ops, read_pct);
        let mut writes = 0;
        let mut checked = Vec::new();
        let mut n = 0;
        for cycle in 0..cycles as usize {
            let cycle_end = Instant::now() + cycle_len;
            if self.clean.is_some() {
                for _ in 0..WRITES_PER_CYCLE {
                    let traced = self.cfg.trace && writes % 2 == 1;
                    writes += 1;
                    if !self.write(ops.next_op(), traced, true) {
                        break;
                    }
                    self.compact_if_due(traced);
                }
            }
            let logged = self.durable.wal_status().records;
            let traced = self.cfg.trace && cycle % 2 == 1;
            if let Err(e) = reopen(&mut self.run, self.cfg, &self.mirror, traced, logged, &[]) {
                self.run.record::<()>(Err(e));
            }
            self.cold_start(COLD_STARTS + cycle, traced);
            // The reads get what the durable work left of the cycle, and
            // at least one batch.
            let left = cycle_end.saturating_duration_since(Instant::now());
            let end = Instant::now() + left.mul_f64(MAIN_SHARE);
            loop {
                let batch: Vec<(usize, bool)> = match self.cfg.spec.kind {
                    Kind::Reads => (n..n + READ_BATCH)
                        .map(|i| (i, self.cfg.trace && i % 2 == 1))
                        .collect(),
                    Kind::Mixed => {
                        let traced = self.cfg.trace && n % 2 == 1;
                        match ops.next_op() {
                            Op::Read(r) => vec![(r, traced)],
                            op => {
                                if !self.write(op, traced, true) {
                                    break;
                                }
                                self.compact_if_due(traced);
                                Vec::new()
                            }
                        }
                    }
                };
                n += batch.len().max(1);
                for (&(qi, traced), read) in batch.iter().zip(self.read_batch(&batch)) {
                    if let Some((d, e, b)) = read {
                        self.run.query_ms.push(traced, e, 1e3);
                        self.run.brs_ms.push(traced, b, 1e3);
                        if self.cfg.spec.kind == Kind::Reads && qi < QUERY_POOL {
                            checked.push((qi, d));
                        }
                    }
                }
                if Instant::now() >= end {
                    break;
                }
            }
            if self.cfg.spec.kind == Kind::Mixed {
                // The rows just changed: check this block's queries first.
                let first = cycle * MIXED_THROUGHPUT_QUERIES;
                let batch: Vec<(usize, bool)> = (first..first + MIXED_THROUGHPUT_QUERIES)
                    .map(|qi| (qi % QUERY_POOL, false))
                    .collect();
                checked = batch
                    .iter()
                    .zip(self.read_batch(&batch))
                    .filter_map(|(&(qi, _), read)| read.map(|(d, _, _)| (qi, d)))
                    .collect();
            }
            self.throughput_block(&checked, cycle_end);
        }
    }

    /// Closed-loop back-to-back queries over already checked pool queries;
    /// each answer must match its checked digest.
    fn throughput_block(&mut self, checked: &[(usize, u64)], end: Instant) {
        if checked.is_empty() {
            self.run
                .record::<()>(Err("throughput: no checked query to repeat".into()));
            return;
        }
        let k = K;
        let engine = read_engine(&self.clean, &self.durable);
        let next = &mut self.throughput_next;
        while Instant::now() < end {
            let traced = self.cfg.trace && self.run.throughput_chunks % 2 == 1;
            self.run.throughput_chunks += 1;
            let tr = &mut self.run.tracer;
            tr.request(traced);
            let root = tr.begin("op.throughput");
            self.scratch.profile.timing = traced;
            let mut wrong = 0;
            let sw = Stopwatch::start();
            for _ in 0..THROUGHPUT_CHUNK {
                let (qi, want) = checked[*next % checked.len()];
                *next += 1;
                match engine.query_with(&self.queries[qi], k, &mut self.scratch) {
                    Ok(a) if answer_digest(a) == want => {}
                    _ => wrong += 1,
                }
            }
            let took = sw.took();
            tr.end(root);
            let side = &mut self.run.throughput[usize::from(traced)];
            side.queries += THROUGHPUT_CHUNK as f64;
            side.cpu_s += took.cpu.as_secs_f64();
            side.wall_s += took.wall.as_secs_f64();
            for i in 0..THROUGHPUT_CHUNK {
                let outcome = if i < wrong {
                    Err("throughput: answer differs from its checked digest".to_string())
                } else {
                    Ok(())
                };
                self.run.record(outcome);
            }
        }
    }

    /// One durable insert or delete, mirrored once acknowledged. With
    /// `sampled`, its latency is a `write_p50_us` sample. `false` when no
    /// generated row is left to insert.
    fn write(&mut self, op: Op, traced: bool, sampled: bool) -> bool {
        let tr = &mut self.run.tracer;
        tr.request(traced);
        let (outcome, took) = match op {
            Op::Read(_) => unreachable!("write streams hold no reads"),
            Op::Insert => {
                if self.next_row == self.insert_rows.len() {
                    return false;
                }
                let row = self.insert_rows.point(PointId::new(self.next_row as u32));
                self.next_row += 1;
                let root = tr.begin("op.insert");
                let t = Instant::now();
                let res = tr.span("durable.insert", || self.durable.insert(row));
                let took = t.elapsed();
                let outcome = res
                    .map_err(err("durable insert"))
                    .and_then(|id| tr.span("mirror.insert", || self.mirror.insert(row, id)));
                tr.end(root);
                (outcome, took)
            }
            Op::Delete(draw) => {
                let (slot, id) = self.mirror.pick(draw);
                let root = tr.begin("op.delete");
                let t = Instant::now();
                let res = tr.span("durable.delete", || self.durable.delete(id));
                let took = t.elapsed();
                let outcome = match res {
                    Ok(true) => tr.span("mirror.delete", || self.mirror.delete(slot)),
                    Ok(false) => Err(format!(
                        "durable delete: row {} was already dead",
                        id.index()
                    )),
                    Err(e) => Err(format!("durable delete: {e}")),
                };
                tr.end(root);
                (outcome, took)
            }
        };
        self.run.writes += 1;
        if self.run.record(outcome).is_some() && sampled {
            self.run.write_us.push(traced, took.as_secs_f64() * 1e6);
            if self.run.writes.is_multiple_of(FSYNC_PROBE_EVERY) {
                // Probes alternate on their own count: the writes they
                // follow always share one parity.
                let probes = self.run.writes / FSYNC_PROBE_EVERY;
                self.fsync_probe(self.cfg.trace && probes % 2 == 1);
            }
        }
        true
    }

    /// The device's own cost of one acknowledged append: a small record
    /// written and fsync'd to a file of its own beside the store. It is the
    /// floor `write_over_fsync` divides by, so that drift of the shared
    /// disk cancels the way host drift cancels in `engine_over_brs`.
    fn fsync_probe(&mut self, traced: bool) {
        let t = Instant::now();
        let res = self
            .probe
            .write_all(&[0u8; PROBE_BYTES])
            .and_then(|()| self.probe.sync_all());
        let took = t.elapsed();
        if self.run.record(res.map_err(err("fsync probe"))).is_some() {
            self.run.fsync_us.push(traced, took.as_secs_f64() * 1e6);
        }
    }

    /// Compacts once the delta region reaches its fixed share of rows.
    fn compact_if_due(&mut self, traced: bool) -> bool {
        let due = self.durable.engine().delta_rows() >= self.compact_at;
        if due {
            self.compact(traced);
        }
        due
    }

    /// `DurableEngine::compact` (compaction plus checkpoint), timed, then
    /// the mirror follows the renumbering and checks the engine's rows.
    fn compact(&mut self, traced: bool) {
        let tr = &mut self.run.tracer;
        tr.request(traced);
        let sw = Stopwatch::start();
        let res = tr.span("durable.compact", || self.durable.compact());
        let took = sw.took();
        let outcome = res.map_err(err("compact")).and_then(|_| {
            self.mirror.compacted();
            self.mirror.verify_state(self.durable.engine())
        });
        if self.run.record(outcome).is_some() {
            self.run.compact_ms.push(traced, took, 1e3);
        }
    }

    /// Maps the last checkpoint's snapshot and answers pool query `qi` from
    /// it, as a fresh serving process would; timed as a
    /// `cold_first_answer_ms` sample. The answer must match SeqScan over the
    /// rows that checkpoint holds.
    fn cold_start(&mut self, qi: usize, traced: bool) {
        let q = &self.queries[qi % QUERY_POOL];
        let path = self.cfg.store_dir().join(SNAP);
        let verified = Telemetry::global().verify.snapshot().sum_nanos();
        let tr = &mut self.run.tracer;
        tr.request(traced);
        let root = tr.begin("op.cold_start");
        let sw = Stopwatch::start();
        let opened = tr.span("store.open_mapped", || Snapshot::open_mapped(&path));
        let (got, took) = match opened {
            Ok(mapped) => {
                let got = match mapped.snapshot.engine.as_ref() {
                    Some(engine) => tr
                        .span("store.first_query", || engine.query(q, K))
                        .map_err(err("cold query")),
                    None => Err("the snapshot holds no engine".to_string()),
                };
                (got, sw.took())
            }
            Err(e) => (Err(format!("open_mapped: {e}")), sw.took()),
        };
        tr.end(root);
        let verify_ns = Telemetry::global().verify.snapshot().sum_nanos() - verified;
        let outcome = got.and_then(|got| {
            let (rows, keys) = self.mirror.checkpoint_rows();
            let want = SeqScan::new(rows, &self.roles)
                .and_then(|scan| scan.query(q, K))
                .map_err(err("SeqScan"))?;
            let key = |a: &[ScoredPoint]| -> Keyed {
                a.iter().map(|p| (keys[p.id.index()], p.score)).collect()
            };
            verify("cold start vs SeqScan", &got, &key(&got), &key(&want))
        });
        if self.run.record(outcome).is_some() {
            self.run.cold_ms.push(traced, took, 1e3);
            self.run.verify_ms.push(verify_ns as f64 / 1e6);
        }
    }

    /// Writes [`TAIL_WRITES`] acknowledged records after the last
    /// checkpoint, with no compaction, and measures the files on disk.
    fn wal_tail(&mut self, seeds: &Seeds) -> Result<(), String> {
        let mut tail = OpStream::new(seeds.ops.rotate_left(17), 0);
        for i in 0..TAIL_WRITES {
            if !self.write(tail.next_op(), self.cfg.trace && i % 2 == 1, false) {
                return Err("ran out of generated rows before the WAL tail".into());
            }
        }
        let dir = self.cfg.store_dir();
        let snap = file_len(&dir.join(SNAP))?;
        let wal = file_len(&dir.join(WAL))?;
        self.run.snapshot_bytes = snap as f64;
        self.run.disk_bytes_per_row = ratio((snap + wal) as f64, self.mirror.live_rows() as f64);
        self.run.wal_after = self.durable.engine().metrics().snapshot();
        self.run.histos_after = Histos::now();
        Ok(())
    }

    /// Stops the engine without a checkpoint, then reopens the store
    /// [`RESTARTS`] times; each reopen replays the WAL tail and must hold
    /// every acknowledged write and answer as the mirror does.
    fn restarts(self) -> Result<Run, String> {
        let Bench {
            cfg,
            queries,
            durable,
            mirror,
            mut run,
            ..
        } = self;
        drop(durable);
        let restarts = if cfg.trace { RESTARTS + 1 } else { RESTARTS };
        for r in 0..restarts {
            let traced = cfg.trace && r % 2 == 1;
            reopen(
                &mut run,
                cfg,
                &mirror,
                traced,
                TAIL_WRITES,
                &queries[r * RESTART_QUERIES..][..RESTART_QUERIES],
            )?;
        }
        Ok(run)
    }
}

/// Opens the store as a restart would and times it as a `recover_ms`
/// sample. The opened engine must have replayed `logged` WAL records and
/// hold exactly the acknowledged history, and answer `queries` as the
/// mirror does. Safe beside the live engine: every append of a
/// single-threaded client has completed, so there is no torn tail and
/// opening writes nothing.
fn reopen(
    run: &mut Run,
    cfg: &Config,
    mirror: &Mirror,
    traced: bool,
    logged: u64,
    queries: &[SdQuery],
) -> Result<(), String> {
    let k = K;
    let dir = cfg.store_dir();
    let tr = &mut run.tracer;
    tr.request(traced);
    let root = tr.begin("op.restart");
    let sw = Stopwatch::start();
    let opened = tr.span("store.open", || {
        let storage = DiskStorage::new(&dir).map_err(err("store dir"))?;
        DurableEngine::open(storage, SNAP, DurableOptions::default()).map_err(err("open"))
    });
    let took = sw.took();
    if traced {
        // The snapshot decode alone, which every open starts with.
        let bytes = std::fs::read(dir.join(SNAP)).map_err(err("read snapshot"))?;
        tr.span("store.decode", || Snapshot::from_bytes(&bytes))
            .map_err(err("decode"))?;
    }
    tr.end(root);
    let outcome = opened.and_then(|d| {
        let replayed = d.recovery().replayed_records;
        if replayed != logged {
            return Err(format!(
                "restart replayed {replayed} records, {logged} were logged"
            ));
        }
        mirror.verify_state(d.engine())?;
        for q in queries {
            let got = d.query(q, k).map_err(err("query after restart"))?;
            let keyed = mirror.keyed(&got)?;
            verify("restart vs BRS", &got, &keyed, &mirror.brs_answer(q, k)?)?;
        }
        Ok(replayed)
    });
    if let Some(replayed) = run.record(outcome) {
        run.recover_ms.push(traced, took, 1e3);
        run.replayed.push(replayed as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn small_run(workload: usize, seed: u64, trace: bool) -> Run {
        let spec = Spec {
            n: 3000,
            ..SPECS[workload].clone()
        };
        let dir = std::env::temp_dir().join(format!(
            "sdq-perfbench-test-{}-{workload}-{seed}-{trace}",
            std::process::id()
        ));
        let cfg = Config {
            spec,
            seed,
            seconds: 0.3,
            trace,
            dir: dir.clone(),
        };
        let run = run(&cfg).expect("the run completes");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run.failed, 0, "{:?}", run.errors);
        run
    }

    #[test]
    fn same_seed_same_queries_and_answers() {
        for workload in [0, 2] {
            let a = small_run(workload, 5, false);
            let b = small_run(workload, 5, false);
            let c = small_run(workload, 6, false);
            assert_eq!(a.query_digest, b.query_digest);
            assert_eq!(a.answer_digest, b.answer_digest);
            assert_ne!(a.query_digest, c.query_digest);
            assert_ne!(a.answer_digest, c.answer_digest);
        }
    }

    /// Names between `"section": [` and the closing `]` of a JSON file
    /// (relative to this package).
    fn declared(file: &str, section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let text = std::fs::read_to_string(path).expect("the file exists");
        let start = text
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn output_matches_benchmark_json() {
        let run = small_run(2, 3, true);
        let names = |m: Vec<Metric>| m.into_iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(
            names(run.end_to_end(false)),
            declared("../BENCHMARK.json", "end_to_end")
        );
        let layers = run.per_layer();
        assert!(layers.iter().all(|m| m.value.is_finite()), "{layers:?}");
        let layers = names(layers);
        assert_eq!(layers, declared("../BENCHMARK.json", "per_layer"));
        let mut mapped = declared("layers.json", "layers");
        let mut sorted = layers.clone();
        mapped.sort();
        sorted.sort();
        assert_eq!(mapped, sorted, "layers.json maps every per-layer metric");
        let e2e = run.end_to_end(false);
        assert!(
            e2e.iter().all(|m| m.value > 0.0 && m.samples > 0),
            "{e2e:?}"
        );
    }
}
