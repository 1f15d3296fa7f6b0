//! The traced replay (`--trace 1`): a prefix of the served requests is
//! replayed one session at a time, calling each layer's public
//! functions in the order `Session::handle` does and recording a span
//! around every call — from outside the program, so the program itself
//! carries no instrumentation. Per-request counters (executor report,
//! pool, cache, memo, aggregator, store and WAL deltas) are read at the
//! same boundaries.
//!
//! Three passes run over fresh set-ups: an untraced baseline through
//! `Session::handle`, then the traced replay twice. Every traced reply
//! must equal the served reply of the same request, the two traced
//! passes' counters must repeat exactly, and the traced time minus the
//! baseline's is the tracing overhead.
//!
//! Two calls are made twice on purpose: the executor builds its merge
//! graph and pebbling order again inside `execute_passes_opts`, and
//! `evaluate_full` compiles the `WITH` clause again. The spans of the
//! outside calls time those layers; the repeats count as overhead.

use crate::client::Served;
use crate::run::{Config, Load, Metric};
use crate::script::{Class, Kind};
use crate::setup::{self, Pair, TempDir};
use crate::stats::median;
use olap_cube::{Cube, CubeAggregator, GroupByMask};
use olap_model::{DimensionId, MemberId};
use olap_workload::{Workforce, WorkforceConfig};
use polap_cli::{cell_digest, Dataset, Outcome, Session};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whatif_core::{
    ExecOpts, ExecReport, Mode, OrderPolicy, PerspectiveSpec, Scenario, ScenarioCache,
    ScenarioForest, Semantics, SplitMemo, Strategy,
};

/// Served requests replayed per connection (edit-session, report).
const PREFIX_PER_CONN: usize = 24;
/// Follower reads replayed (ingest-follow): enough to span the first
/// commits.
const PREFIX_READS: usize = 60;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

/// Spans kept in memory; written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    req: usize,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
    }

    fn end(&mut self) {
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span named `name`, nested under the open span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Span durations in milliseconds, by name, one per request.
    fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for s in &self.spans {
            *per.entry((s.name, s.req)).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"req\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        f.flush()
    }
}

/// Counters of one request, by name (deterministic; compared exactly
/// across the two traced passes).
pub type Counters = BTreeMap<&'static str, u64>;

/// The session state and shared structures the traced replay runs on:
/// the same cube, cache, memo and named sets a server session sees.
struct Engine<'a> {
    cube: &'a Cube,
    cache: Option<Arc<ScenarioCache>>,
    memo: Arc<SplitMemo>,
    sets: Vec<(String, DimensionId, Vec<MemberId>)>,
    forest: ScenarioForest,
}

fn varying_dim(cube: &Cube) -> DimensionId {
    let schema = cube.schema();
    schema
        .dim_ids()
        .find(|&d| schema.varying(d).is_some())
        .expect("workload datasets have a varying dimension")
}

fn add_exec(c: &mut Counters, r: &ExecReport) {
    c.insert("exec.chunks_read", r.chunks_read);
    c.insert("exec.merges", r.merges);
    c.insert("exec.cells_relocated", r.cells_relocated);
    c.insert("exec.passes", r.passes);
    c.insert("exec.peak_out_buffers", r.peak_out_buffers);
    c.insert("exec.cache_chunks_served", r.cache_chunks_served);
}

impl Engine<'_> {
    fn opts(&self) -> ExecOpts {
        ExecOpts {
            threads: 1,
            prefetch: 0,
            cache: self.cache.clone(),
            budget_cells: 0,
            kernel: whatif_core::KernelKind::default(),
            deadline: None,
        }
    }

    /// One request, layer by layer. Mirrors `Session::handle` for the
    /// verbs the workloads send.
    fn handle(&mut self, rec: &mut Recorder, c: &mut Counters, line: &str) -> String {
        let Some(rest) = line.strip_prefix('.') else {
            return self.mdx(rec, c, line);
        };
        let (head, arg) = rest.split_once(' ').unwrap_or((rest, ""));
        let arg = arg.trim();
        match head {
            "apply" if arg.is_empty() => match self.forest.scenario() {
                Some(s) => self.run_scenario(rec, c, &s),
                None => "traced replay: bare .apply without a scenario".into(),
            },
            "apply" => {
                let mut parts = arg.split_whitespace();
                let semantics = match parts.next() {
                    Some("static") => Semantics::Static,
                    Some("forward") => Semantics::Forward,
                    other => return format!("traced replay: semantics {other:?}"),
                };
                let moments: Vec<u32> = parts
                    .next()
                    .unwrap_or("")
                    .split(',')
                    .filter_map(|m| m.parse().ok())
                    .collect();
                let spec =
                    PerspectiveSpec::new(varying_dim(self.cube), moments, semantics, Mode::Visual);
                self.forest.set_negative(spec.clone());
                self.run_scenario(rec, c, &Scenario::Negative(spec))
            }
            "fork" => {
                let parent = self.forest.current_name().to_string();
                match self.forest.fork(arg) {
                    Ok(()) => format!("forked '{arg}' from '{parent}' — now on '{arg}'"),
                    Err(e) => format!("error: {e}"),
                }
            }
            "switch" => match self.forest.switch(arg) {
                Ok(()) => format!("now on '{arg}'"),
                Err(e) => format!("error: {e}"),
            },
            "change" => self.change(arg),
            "rollup" => self.rollup(rec, c),
            "budget" => "session budget: unlimited".into(),
            _ => format!("traced replay: unsupported verb .{head}"),
        }
    }

    fn change(&mut self, arg: &str) -> String {
        let parts: Vec<&str> = arg.split_whitespace().collect();
        let [member, parent, moment] = parts[..] else {
            return "traced replay: bad .change".into();
        };
        let dim = varying_dim(self.cube);
        let schema = self.cube.schema();
        let dimension = schema.dim(dim);
        let (Some(m), Some(n), Ok(at)) = (
            dimension.find(member),
            dimension.find(parent),
            moment.parse::<u32>(),
        ) else {
            return "traced replay: unresolved .change".into();
        };
        let change = whatif_core::Change {
            member: m,
            old_parent: None,
            new_parent: n,
            at,
        };
        let name = dimension.name().to_string();
        match self.forest.add_change(dim, Mode::Visual, change) {
            Ok(()) => {
                let ch = self.forest.current_changes().expect("change just added");
                format!(
                    "fork '{}': {} change(s) on {name} ({} shared with ancestors)",
                    self.forest.current_name(),
                    ch.len(),
                    ch.shared_len(),
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    fn run_scenario(&mut self, rec: &mut Recorder, c: &mut Counters, s: &Scenario) -> String {
        match s {
            Scenario::Negative(spec) => self.negative(rec, c, spec),
            Scenario::Positive { dim, changes, mode } => {
                let label = format!(
                    "{} change(s) [fork '{}']",
                    changes.len(),
                    self.forest.current_name()
                );
                let key = whatif_core::memo_key(self.cube, *dim, *mode, changes.iter());
                let hit = rec.time("core.split_memo", || self.memo.lookup(key));
                if let Some(hit) = hit {
                    c.insert("split_memo.hits", 1);
                    return format!(
                        "applied {label}: {} cells, digest {:016x}, 0 pass(es)",
                        hit.cells, hit.digest
                    );
                }
                let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
                let opts = self.opts();
                let result = rec.time("core.exec", || {
                    whatif_core::apply_opts(self.cube, s, &strategy, None, opts)
                });
                let result = match result {
                    Ok(r) => r,
                    Err(e) => return format!("error: {e}"),
                };
                let (count, digest) = match rec.time("cli.digest", || cell_digest(&result.cube)) {
                    Ok(d) => d,
                    Err(e) => return format!("error: {e}"),
                };
                let passes = result.report.passes;
                rec.time("core.split_memo", || {
                    self.memo.insert(
                        key,
                        Arc::new(whatif_core::SplitResult {
                            schema: result.schema,
                            cube: result.cube,
                            cells: count,
                            digest,
                        }),
                    )
                });
                format!("applied {label}: {count} cells, digest {digest:016x}, {passes} pass(es)")
            }
        }
    }

    /// A negative scenario: Φ, the destination map and the pass plan
    /// (`core.plan`), the merge graph and pebbling order (`core.merge`),
    /// the executor (`core.exec`), then the digest (`cli.digest`).
    fn negative(&mut self, rec: &mut Recorder, c: &mut Counters, spec: &PerspectiveSpec) -> String {
        let cube = self.cube;
        let schema = cube.schema();
        let varying = schema.varying(spec.dim).expect("varying dimension");
        let moments = varying.moments();
        let vs = rec.time("core.plan.phi", || {
            whatif_core::phi(
                spec.semantics,
                varying.instances(),
                &spec.perspectives,
                moments,
            )
        });
        let map = match rec.time("core.plan.destmap", || {
            whatif_core::DestMap::build(cube, spec.dim, &vs)
        }) {
            Ok(m) => m,
            Err(e) => return format!("error: {e}"),
        };
        let passes = rec.time("core.plan.passes", || {
            whatif_core::decompose_passes(&map, spec.semantics, &spec.perspectives, varying)
        });
        let extent = cube.geometry().extents()[spec.dim.index()];
        let graph = rec.time("core.merge.graph", || {
            whatif_core::MergeGraph::build(varying, &map, extent)
        });
        rec.time("core.merge.pebbling", || {
            std::hint::black_box(whatif_core::merge::heuristic_order(&graph))
        });
        let opts = self.opts();
        let (out, report) = match rec.time("core.exec", || {
            whatif_core::execute_passes_opts(
                cube,
                spec.dim,
                &map,
                &passes,
                &OrderPolicy::Pebbling,
                None,
                opts,
            )
        }) {
            Ok(r) => r,
            Err(e) => return format!("error: {e}"),
        };
        add_exec(c, &report);
        let (count, digest) = match rec.time("cli.digest", || cell_digest(&out)) {
            Ok(d) => d,
            Err(e) => return format!("error: {e}"),
        };
        let sem = match spec.semantics {
            Semantics::Static => "static",
            _ => "forward",
        };
        let list: Vec<String> = spec.perspectives.iter().map(|m| m.to_string()).collect();
        format!(
            "applied {sem} {{{}}}: {count} cells, digest {digest:016x}, {} pass(es)",
            list.join(","),
            report.passes
        )
    }

    /// An extended-MDX query: parse, compile the `WITH` clause, evaluate
    /// (which runs the executor), and format the grid.
    fn mdx(&mut self, rec: &mut Recorder, c: &mut Counters, line: &str) -> String {
        let mut ctx = olap_mdx::QueryContext::new(self.cube);
        ctx.cache = self.cache.clone();
        for (name, dim, members) in &self.sets {
            ctx.define_set(name, *dim, members);
        }
        let query = match rec.time("mdx.parse", || olap_mdx::parse(line)) {
            Ok(q) => q,
            Err(e) => return format!("error: {e}"),
        };
        if let Some(w) = &query.with {
            if let Err(e) = rec.time("mdx.compile", || olap_mdx::compile_with(&ctx, w)) {
                return format!("error: {e}");
            }
        }
        let (grid, report) =
            match rec.time("mdx.evaluate", || olap_mdx::evaluate_full(&ctx, &query)) {
                Ok(r) => r,
                Err(e) => return format!("error: {e}"),
            };
        if let Some(r) = &report {
            add_exec(c, r);
        }
        rec.time("mdx.grid_format", || grid.to_string())
    }

    /// `.rollup`: one group-by per dimension through the aggregator.
    fn rollup(&mut self, rec: &mut Recorder, c: &mut Counters) -> String {
        let cube = self.cube;
        let schema = cube.schema();
        let masks: Vec<GroupByMask> = (0..cube.geometry().ndims() as u32)
            .map(|d| 1 << d)
            .collect();
        let result = rec.time("cube.aggregate", || {
            CubeAggregator::new(cube).compute_with_budget(&masks, u64::MAX)
        });
        let (results, report) = match result {
            Ok(r) => r,
            Err(e) => return format!("error: {e}"),
        };
        c.insert("aggregate.passes", report.passes);
        c.insert("aggregate.peak_buffer_cells", report.peak_buffer_cells);
        let mut out = String::new();
        for (d, &mask) in masks.iter().enumerate() {
            let name = schema.dim(schema.dim_ids().nth(d).expect("dim")).name();
            let total = results
                .get(&mask)
                .map(|r| r.grand_total())
                .unwrap_or(f64::NAN);
            let _ = writeln!(out, "{name:<14} total {total}");
        }
        let _ = write!(
            out,
            "{} pass(es), peak {} buffer cells",
            report.passes, report.peak_buffer_cells
        );
        out
    }
}

/// Traces one request end to end: the layer calls, then the reply's
/// framing (`proto.frame`: encode and decode one response frame), with
/// pool, cache, memo and store counter deltas around it.
fn traced_request(
    engine: &mut Engine<'_>,
    rec: &mut Recorder,
    req: usize,
    line: &str,
) -> (String, Counters) {
    let cube = engine.cube;
    let mut c = Counters::new();
    rec.req = req;
    let pool0 = cube.pool_stats();
    let io0 = cube.io_snapshot();
    let cache0 = engine.cache.as_ref().map(|k| k.stats()).unwrap_or_default();
    rec.begin("request");
    let reply = engine.handle(rec, &mut c, line);
    rec.time("proto.frame", || {
        let mut buf = Vec::with_capacity(reply.len() + 5);
        olap_server::write_frame(&mut buf, olap_server::STATUS_OK, &reply).expect("frame");
        olap_server::read_response(&mut &buf[..]).expect("frame round trip")
    });
    rec.end();
    let pool = cube.pool_stats();
    let io = cube.io_snapshot();
    let cache = engine.cache.as_ref().map(|k| k.stats()).unwrap_or_default();
    c.insert("pool.hits", pool.hits - pool0.hits);
    c.insert("pool.misses", pool.misses - pool0.misses);
    c.insert("pool.evictions", pool.evictions - pool0.evictions);
    c.insert("file.reads", io.reads - io0.reads);
    c.insert("file.bytes_read", io.bytes_read - io0.bytes_read);
    c.insert("cache.lookups", cache.lookups - cache0.lookups);
    c.insert("cache.hits", cache.hits - cache0.hits);
    c.insert("cache.evictions", cache.evictions - cache0.evictions);
    c.insert("cache.bytes", cache.bytes);
    c.insert("reply_bytes", reply.len() as u64);
    (reply, c)
}

/// The dataset definitions behind `polap_cli::Dataset`, rebuilt here so
/// the replay owns the cube and the named sets directly. A drift from
/// the served definition shows up as a digest mismatch.
fn workforce_config(ds: Dataset) -> WorkforceConfig {
    match ds {
        Dataset::Bench => WorkforceConfig {
            employees: 400,
            departments: 12,
            changing: 80,
            employee_extent: 1,
            accounts: 4,
            scenarios: 2,
            ..WorkforceConfig::default()
        },
        _ => WorkforceConfig::default(),
    }
}

/// One pass over the replayed requests: either untraced through
/// `Session::handle`, or traced layer by layer.
#[derive(Default)]
struct Pass {
    replies: Vec<String>,
    counters: Vec<Counters>,
    /// Wall time of each request (ms).
    wall_ms: Vec<f64>,
    rec: Recorder,
    /// ingest-follow: WAL bytes and syncs per commit.
    wal: Vec<(u64, u64)>,
    /// ingest-follow: flush epochs the follower applied, summed over
    /// the commits (its reported epoch after each commit minus before).
    applied: u64,
}

impl Pass {
    /// Request `i`, traced, with its wall time and counters.
    fn traced_step(&mut self, engine: &mut Engine<'_>, i: usize, line: &str) {
        let memo0 = engine.memo.stats().hits;
        let t0 = Instant::now();
        let (reply, mut c) = traced_request(engine, &mut self.rec, i, line);
        self.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        c.insert("split_memo.hits", engine.memo.stats().hits - memo0);
        self.replies.push(reply);
        self.counters.push(c);
    }

    /// A request through `Session::handle`, with its wall time.
    fn session_step(&mut self, session: &mut Session, line: &str) {
        let t0 = Instant::now();
        let reply = match session.handle(line) {
            Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
        };
        self.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.replies.push(reply);
    }
}

/// A request to replay: its connection's session boundary, its line,
/// and (ingest-follow) the commit it was served at.
struct Step<'a> {
    fresh: bool,
    line: &'a str,
    commit: usize,
}

fn pass_single(cfg: &Config, steps: &[Step<'_>], traced: bool) -> Pass {
    let (ds, cache_mb) = crate::run::dataset(cfg);
    let mut pass = Pass::default();
    if traced {
        let w = Workforce::build(workforce_config(ds));
        let sets = w
            .named_sets()
            .into_iter()
            .map(|(n, m)| (n, w.department, m))
            .collect();
        let mut engine = Engine {
            cube: &w.cube,
            cache: (cache_mb > 0).then(|| Arc::new(ScenarioCache::with_capacity_mb(cache_mb))),
            memo: Arc::new(SplitMemo::new()),
            sets,
            forest: ScenarioForest::new(),
        };
        for (i, step) in steps.iter().enumerate() {
            if step.fresh {
                engine.forest = ScenarioForest::new();
            }
            pass.traced_step(&mut engine, i, step.line);
        }
    } else {
        let shared = setup::load(ds, cache_mb);
        let mut session = Session::attach(Arc::clone(&shared));
        for step in steps {
            if step.fresh {
                session = Session::attach(Arc::clone(&shared));
            }
            pass.session_step(&mut session, step.line);
        }
    }
    pass
}

/// ingest-follow: a fresh leader and follower; commits are replayed in
/// order (`store.wal.flush` spans, `server.replica.wait` until the
/// follower applied each), and every replayed read runs on the
/// follower's data once it stands at the commit it was served from.
fn pass_pair(
    cfg: &Config,
    load: &Load,
    steps: &[Step<'_>],
    traced: bool,
    dir: &TempDir,
    tag: &str,
) -> Result<Pass, String> {
    let (ds, _) = crate::run::dataset(cfg);
    let pair = Pair::start(ds, dir, tag)?;
    let mut pass = Pass::default();
    let shared = Arc::clone(&pair.follower_shared);
    let mut engine = Engine {
        cube: shared.cube(),
        cache: shared.cache().cloned(),
        memo: Arc::clone(shared.split_memo()),
        sets: Vec::new(),
        forest: ScenarioForest::new(),
    };
    let mut session = Session::attach(Arc::clone(&shared));
    let mut replay = || -> Result<(), String> {
        let mut at = 0usize;
        for (i, step) in steps.iter().enumerate() {
            while at < step.commit {
                at += 1;
                pass.rec.req = usize::MAX - at;
                let epoch0 = pair.follower.state().epoch();
                let wal0 = setup::wal_stats(&pair.leader);
                pass.rec.begin("store.wal.flush");
                let pos = pair.commit(&load.commits[at].1);
                pass.rec.end();
                let pos = pos?;
                let wal = setup::wal_stats(&pair.leader);
                pass.wal
                    .push((wal.bytes_logged - wal0.bytes_logged, wal.syncs - wal0.syncs));
                pass.rec.begin("server.replica.wait");
                let waited = pair.wait_follower(pos, Duration::from_secs(10));
                pass.rec.end();
                waited?;
                pass.applied += pair.follower.state().epoch() - epoch0;
            }
            if traced {
                pass.traced_step(&mut engine, i, step.line);
            } else {
                pass.session_step(&mut session, step.line);
            }
        }
        Ok(())
    };
    let replayed = replay();
    drop(session);
    drop(engine);
    drop(shared);
    let stopped = pair.stop();
    replayed.and(stopped)?;
    Ok(pass)
}

/// What the traced run reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

fn mean_over(counters: &[&Counters], key: &str) -> f64 {
    if counters.is_empty() {
        return 0.0;
    }
    counters
        .iter()
        .map(|c| c.get(key).copied().unwrap_or(0) as f64)
        .sum::<f64>()
        / counters.len() as f64
}

fn sum_of(counters: &[Counters], key: &str) -> u64 {
    counters
        .iter()
        .map(|c| c.get(key).copied().unwrap_or(0))
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn med(v: Option<&Vec<f64>>) -> f64 {
    match v {
        Some(v) if !v.is_empty() => median(v),
        _ => 0.0,
    }
}

/// Runs the baseline and the two traced passes, checks them, writes
/// the spans, and computes the per-layer metrics.
pub fn traced_run(
    cfg: &Config,
    load: &Load,
    served: &[&Served],
    chosen: &[usize],
    proto_floor: Vec<f64>,
    dir: &TempDir,
) -> Result<Traced, String> {
    // The replayed prefix, in served order per connection.
    let mut picked: Vec<(&Served, usize)> = Vec::new();
    match cfg.kind {
        Kind::IngestFollow => {
            let n = if cfg.tiny { 8 } else { PREFIX_READS };
            picked.extend(served.iter().zip(chosen).map(|(s, &j)| (*s, j)).take(n));
        }
        _ => {
            let n = if cfg.tiny { 6 } else { PREFIX_PER_CONN };
            for conn in 0..load.clients.len() {
                picked.extend(
                    served
                        .iter()
                        .filter(|s| s.conn == conn)
                        .take(n)
                        .map(|s| (*s, 0)),
                );
            }
        }
    }
    let steps: Vec<Step<'_>> = picked
        .iter()
        .map(|(s, j)| Step {
            fresh: s.fresh,
            line: &s.req.line,
            commit: *j,
        })
        .collect();
    let run_pass = |traced: bool, tag: &str| -> Result<Pass, String> {
        match cfg.kind {
            Kind::IngestFollow => pass_pair(cfg, load, &steps, traced, dir, tag),
            _ => Ok(pass_single(cfg, &steps, traced)),
        }
    };
    let base = run_pass(false, "base")?;
    let a = run_pass(true, "a")?;
    let b = run_pass(true, "b")?;

    let mut problems = Vec::new();
    for (i, (s, _)) in picked.iter().enumerate() {
        let served_reply = &load.clients[s.conn].replies[s.reply];
        for (what, pass) in [("baseline", &base), ("traced", &a)] {
            if &pass.replies[i] != served_reply {
                problems.push(format!(
                    "{what} replay of `{}` differs from the served reply",
                    s.req.line.chars().take(60).collect::<String>()
                ));
            }
        }
    }
    if a.counters != b.counters || a.wal != b.wal || a.applied != b.applied {
        let first = a.counters.iter().zip(&b.counters).position(|(x, y)| x != y);
        problems.push(format!(
            "traced counters did not repeat across two runs (first difference at request {first:?})"
        ));
    }
    std::fs::create_dir_all(setup::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let spans_path = setup::out_dir().join(format!(
        "spans-{}-seed{}.jsonl",
        crate::run::name(cfg.kind),
        cfg.seed
    ));
    a.rec
        .write_jsonl(&spans_path)
        .map_err(|e| format!("write spans: {e}"))?;

    let n = picked.len().max(1) as f64;
    let traced_ms: f64 = a.wall_ms.iter().sum();
    let base_ms: f64 = base.wall_ms.iter().sum();
    let overhead = (traced_ms - base_ms) / n;
    let notes = vec![
        format!(
            "traced replay: {} requests; baseline {:.1} ms, traced {:.1} ms, overhead {:.3} ms/request",
            picked.len(),
            base_ms,
            traced_ms,
            overhead
        ),
        format!("spans: {}", spans_path.display()),
    ];

    let durations = a.rec.durations();
    let d = |name: &str| med(durations.get(name));
    let classes: Vec<Class> = picked.iter().map(|(s, _)| s.req.class).collect();
    let of = |want: &dyn Fn(usize) -> bool| -> Vec<&Counters> {
        a.counters
            .iter()
            .enumerate()
            .filter(|(i, _)| want(*i))
            .map(|(_, c)| c)
            .collect()
    };
    let executed = of(&|i| a.counters[i].contains_key("exec.passes"));
    let mdx = of(&|i| classes[i] == Class::Mdx);
    let rollups = of(&|i| classes[i] == Class::Rollup);
    let all = of(&|_| true);
    let c = &a.counters;
    let pool_hits = sum_of(c, "pool.hits");
    let pool_misses = sum_of(c, "pool.misses");
    let cache_lookups = sum_of(c, "cache.lookups");
    let commits = a.wal.len().max(1) as f64;
    let (wal_bytes, wal_syncs) = a
        .wal
        .iter()
        .fold((0u64, 0u64), |(x, y), (b, s)| (x + b, y + s));
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };

    let metrics: Vec<Metric> = vec![
        ("core.exec_ms".into(), d("core.exec"), "ms"),
        (
            "core.exec.chunks_read".into(),
            mean_over(&executed, "exec.chunks_read"),
            "count",
        ),
        (
            "core.exec.merges".into(),
            mean_over(&executed, "exec.merges"),
            "count",
        ),
        (
            "core.exec.cells_relocated".into(),
            mean_over(&executed, "exec.cells_relocated"),
            "count",
        ),
        (
            "core.exec.passes".into(),
            mean_over(&executed, "exec.passes"),
            "count",
        ),
        (
            "core.exec.peak_out_buffers".into(),
            mean_over(&executed, "exec.peak_out_buffers"),
            "count",
        ),
        (
            "core.exec.cache_chunks_served".into(),
            mean_over(&executed, "exec.cache_chunks_served"),
            "count",
        ),
        (
            "store.pool.hit_ratio".into(),
            ratio(pool_hits, pool_hits + pool_misses),
            "ratio",
        ),
        (
            "store.pool.misses".into(),
            mean_over(&all, "pool.misses"),
            "count",
        ),
        (
            "store.pool.evictions".into(),
            mean_over(&all, "pool.evictions"),
            "count",
        ),
        (
            "core.cache.hit_ratio".into(),
            ratio(sum_of(c, "cache.hits"), cache_lookups),
            "ratio",
        ),
        (
            "core.cache.lookups".into(),
            mean_over(&executed, "cache.lookups"),
            "count",
        ),
        (
            "core.cache.evictions".into(),
            sum_of(c, "cache.evictions") as f64,
            "count",
        ),
        (
            "core.cache.bytes".into(),
            c.last()
                .and_then(|x| x.get("cache.bytes"))
                .copied()
                .unwrap_or(0) as f64,
            "bytes",
        ),
        (
            "core.split_memo.hits".into(),
            sum_of(c, "split_memo.hits") as f64,
            "count",
        ),
        ("cli.digest_ms".into(), d("cli.digest"), "ms"),
        ("mdx.parse_ms".into(), d("mdx.parse"), "ms"),
        ("mdx.compile_ms".into(), d("mdx.compile"), "ms"),
        ("mdx.evaluate_ms".into(), d("mdx.evaluate"), "ms"),
        ("mdx.grid_format_ms".into(), d("mdx.grid_format"), "ms"),
        (
            "proto.reply_bytes".into(),
            mean_over(&mdx, "reply_bytes"),
            "bytes",
        ),
        ("proto.frame_ms".into(), d("proto.frame"), "ms"),
        ("proto.roundtrip_ms".into(), p50(&proto_floor), "ms"),
        ("core.plan.phi_ms".into(), d("core.plan.phi"), "ms"),
        ("core.plan.destmap_ms".into(), d("core.plan.destmap"), "ms"),
        ("core.plan.passes_ms".into(), d("core.plan.passes"), "ms"),
        ("core.merge.graph_ms".into(), d("core.merge.graph"), "ms"),
        (
            "core.merge.pebbling_ms".into(),
            d("core.merge.pebbling"),
            "ms",
        ),
        ("cube.aggregate_ms".into(), d("cube.aggregate"), "ms"),
        (
            "cube.aggregate.passes".into(),
            mean_over(&rollups, "aggregate.passes"),
            "count",
        ),
        (
            "cube.aggregate.peak_buffer_cells".into(),
            mean_over(&rollups, "aggregate.peak_buffer_cells"),
            "count",
        ),
        (
            "store.file.reads".into(),
            mean_over(&all, "file.reads"),
            "count",
        ),
        (
            "store.file.bytes_read".into(),
            mean_over(&all, "file.bytes_read"),
            "bytes",
        ),
        ("store.wal.flush_ms".into(), d("store.wal.flush"), "ms"),
        (
            "store.wal.bytes_per_commit".into(),
            wal_bytes as f64 / commits,
            "bytes",
        ),
        (
            "store.wal.syncs_per_commit".into(),
            wal_syncs as f64 / commits,
            "count",
        ),
        ("store.wal.commit_p50_ms".into(), p50(&load.commit_ms), "ms"),
        (
            "server.replica.applies".into(),
            a.applied as f64 / commits,
            "count",
        ),
        (
            "server.replica.wait_ms".into(),
            d("server.replica.wait"),
            "ms",
        ),
        ("server.replica.lag_p50_ms".into(), p50(&load.lag_ms), "ms"),
        ("writer.late_ms".into(), p50(&load.late_ms), "ms"),
        ("trace.overhead_ms".into(), overhead, "ms"),
    ];
    Ok(Traced {
        metrics,
        problems,
        notes,
    })
}
