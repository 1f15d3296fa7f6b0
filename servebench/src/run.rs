//! One benchmark run of one workload: set up several times (the fastest
//! is `setup_s`), drive the closed-loop clients (and, on ingest-follow,
//! the open-loop writer) through a warm-up and the measured window,
//! check every reply against the serial oracle, and optionally replay
//! a prefix layer by layer with tracing (`--trace 1`).

use crate::client::{self, ClientOut, Served};
use crate::oracle;
use crate::script::{self, Batch, Class, Kind};
use crate::setup::{self, Pair, Single, TempDir};
use crate::stats::{median, percentile};
use crate::trace;
use polap_cli::{Dataset, SharedData};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run, half before serving and half after it; `setup_s`
/// is the fastest. Set-up is a short build whose time other work on
/// the host only ever lengthens: single set-ups vary by half, and a
/// burst of such work can slow every set-up made within a few seconds,
/// so the two halves are half a minute apart.
pub const SETUPS: usize = 20;
/// The tail percentile noted for request classes.
pub const TAIL_Q: f64 = 0.9;
/// ingest-follow: one commit every this many milliseconds. Each applied
/// commit clears the follower's pool and cache, so the first `.apply`
/// after it runs cold (about three times a warm one) and the rest until
/// the next commit are served warm. Commits are spaced so that cold
/// applies stay near a tenth of all applies even when the host slows
/// the reader: at one commit a second they were a quarter to a third,
/// their share grew whenever the reader slowed, and the median apply
/// jumped with it.
pub const COMMIT_EVERY_MS: u64 = 3000;
/// ingest-follow: cells set per commit.
pub const BATCH_CELLS: usize = 64;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// A smoke-sized run: short windows, the small dataset everywhere,
    /// and no sample-count rule (tests use this).
    pub tiny: bool,
}

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A finished run.
#[derive(Debug, Default)]
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    /// Violations of oracle or trace checks (empty when correct).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl RunOut {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

pub fn name(kind: Kind) -> &'static str {
    match kind {
        Kind::EditSession => "edit-session",
        Kind::Report => "report",
        Kind::IngestFollow => "ingest-follow",
    }
}

/// The dataset a workload serves.
pub fn dataset(cfg: &Config) -> (Dataset, usize) {
    match cfg.kind {
        Kind::EditSession => (Dataset::Bench, setup::CACHE_MB),
        Kind::Report if cfg.tiny => (Dataset::Bench, 0),
        Kind::Report => (Dataset::Workforce, 0),
        Kind::IngestFollow => (Dataset::Bench, setup::CACHE_MB),
    }
}

fn warmup(cfg: &Config) -> f64 {
    if cfg.tiny {
        0.2
    } else {
        (cfg.seconds / 10.0).clamp(1.0, 3.0)
    }
}

/// What the load phase produced.
pub struct Load {
    pub clients: Vec<ClientOut>,
    /// ingest-follow: `(position, batch)` per commit, base image first.
    pub commits: Vec<(u64, Batch)>,
    /// ingest-follow: commit latency from the due time, generator
    /// lateness, and replication lag, in milliseconds.
    pub commit_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub window: (f64, f64),
    /// Peak resident set while serving (MiB).
    pub peak_rss_mib: f64,
}

/// Starts `n` set-ups in a row (at least one), timing each, and keeps
/// the last; the others are stopped at once.
fn timed_setups<T>(
    n: usize,
    mut start: impl FnMut(usize) -> Result<T, String>,
    stop: impl Fn(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    for i in 0.. {
        let t0 = Instant::now();
        let s = start(i)?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 >= n {
            return Ok((s, times));
        }
        stop(s)?;
    }
    unreachable!("the loop returns at the last set-up")
}

/// `n` more timed set-ups, each stopped at once.
fn more_setups<T>(
    n: usize,
    start: impl FnMut(usize) -> Result<T, String>,
    stop: impl Fn(T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let (last, times) = timed_setups(n, start, &stop)?;
    stop(last)?;
    Ok(times)
}

pub fn run(cfg: Config) -> Result<RunOut, String> {
    let dir = TempDir::new(name(cfg.kind)).map_err(|e| format!("temp dir: {e}"))?;
    let (ds, cache_mb) = dataset(&cfg);
    let (before, after) = if cfg.tiny {
        (1, 0)
    } else {
        (SETUPS / 2, SETUPS - SETUPS / 2)
    };
    let mut out = RunOut::default();
    let (load, proto_floor, setup_times) = match cfg.kind {
        Kind::EditSession | Kind::Report => {
            let start = |_| Single::start(ds, cache_mb).map_err(|e| format!("server: {e}"));
            let stop = |s: Single| {
                s.stop();
                Ok(())
            };
            let (served, mut times) = timed_setups(before, start, stop)?;
            let load = drive(&cfg, served.addr(), None)?;
            let floor = floor_probe(&cfg, served.addr())?;
            served.stop();
            times.extend(more_setups(after, start, stop)?);
            (load, floor, times)
        }
        Kind::IngestFollow => {
            let (pair, mut times) = timed_setups(
                before,
                |i| Pair::start(ds, &dir, &format!("s{i}")),
                Pair::stop,
            )?;
            let load = drive(&cfg, pair.follower.addr(), Some(&pair))?;
            let floor = floor_probe(&cfg, pair.follower.addr())?;
            let last = load.commits.last().map_or(pair.base, |c| c.0);
            pair.wait_follower(last, Duration::from_secs(10))?;
            if let Err(e) = pair.stop() {
                out.problems.push(e);
            }
            times.extend(more_setups(
                after,
                |i| Pair::start(ds, &dir, &format!("t{i}")),
                Pair::stop,
            )?);
            (load, floor, times)
        }
    };
    let oracle_data = setup::load(ds, 0);
    let served: Vec<&Served> = load.clients.iter().flat_map(|c| c.served.iter()).collect();
    out.attempted = served.len() as u64;
    let reply_of = |s: &Served| -> &str { &load.clients[s.conn].replies[s.reply] };
    // Engine errors never pass, whatever the oracle says.
    let mut bad: Vec<bool> = served
        .iter()
        .map(|s| client::is_error_reply(s.status, reply_of(s)))
        .collect();
    let t_oracle = Instant::now();
    let chosen = check(&cfg, &oracle_data, &load, &served, &mut bad, &mut out);
    out.notes.push(format!(
        "oracle: {} requests checked in {:.2} s",
        served.len(),
        t_oracle.elapsed().as_secs_f64()
    ));
    drop(oracle_data);
    out.failed = bad.iter().filter(|&&b| b).count() as u64;
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} replies failed or disagreed with the serial oracle",
            out.failed, out.attempted
        ));
    }

    if cfg.trace {
        let t = trace::traced_run(&cfg, &load, &served, &chosen, proto_floor, &dir)?;
        out.problems.extend(t.problems);
        out.notes.extend(t.notes);
        out.metrics = t.metrics;
        out.metrics
            .push(("peak_rss_mib".into(), load.peak_rss_mib, "MiB"));
    } else {
        out.metrics = end_to_end(&cfg, &load, &setup_times, &mut out.notes, &mut out.problems);
    }
    Ok(out)
}

/// No-op requests in the proto floor probe.
const FLOOR_PROBES: usize = 40;

/// The proto floor: `.budget` round trips on a quiet server.
fn floor_probe(cfg: &Config, addr: SocketAddr) -> Result<Vec<f64>, String> {
    if !cfg.trace {
        return Ok(Vec::new());
    }
    client::roundtrip_floor_ms(addr, FLOOR_PROBES).map_err(|e| format!("roundtrip probe: {e}"))
}

/// Runs the clients (and the writer) through warm-up plus the window.
fn drive(cfg: &Config, addr: SocketAddr, pair: Option<&Pair>) -> Result<Load, String> {
    let warm = warmup(cfg);
    let conns = match cfg.kind {
        Kind::IngestFollow => 1,
        _ => 2,
    };
    let follower = pair.map(|p| Arc::clone(p.follower.state()));
    let seed = cfg.seed;
    // The writer's targets: every present cell of the base.
    let mut present: Vec<Vec<u32>> = Vec::new();
    if let Some(p) = pair {
        p.leader
            .cube()
            .for_each_present(|c, _| present.push(c.to_vec()))
            .map_err(|e| format!("scan leader: {e}"))?;
    }
    let present = &present;
    reset_peak_rss();
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(warm + cfg.seconds);
    let kind = cfg.kind;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..conns)
            .map(|c| {
                let stream = script::Stream::new(kind, seed, c);
                let f = follower.clone();
                scope.spawn(move || client::closed_loop(c, addr, stream, epoch, until, f))
            })
            .collect();
        let writer = pair.map(|p| scope.spawn(move || write_loop(p, present, seed, epoch, until)));
        let mut load = Load {
            clients: Vec::new(),
            commits: Vec::new(),
            commit_ms: Vec::new(),
            late_ms: Vec::new(),
            lag_ms: Vec::new(),
            window: (warm, warm + cfg.seconds),
            peak_rss_mib: 0.0,
        };
        for c in clients {
            let out = c
                .join()
                .map_err(|_| "client thread panicked".to_string())?
                .map_err(|e| format!("client: {e}"))?;
            load.clients.push(out);
        }
        if let Some(w) = writer {
            let (commits, commit_ms, late_ms, lag_ms) = w
                .join()
                .map_err(|_| "writer thread panicked".to_string())??;
            load.commits = commits;
            load.commit_ms = commit_ms;
            load.late_ms = late_ms;
            load.lag_ms = lag_ms;
        }
        load.peak_rss_mib = peak_rss_mib();
        Ok(load)
    })
}

/// Resets this process's peak-resident-set mark to its current RSS, so
/// that `VmHWM` covers serving only, not the set-ups before it (Linux
/// 4.0 and later; elsewhere the mark is left alone).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Reads `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

type WriterOut = (Vec<(u64, Batch)>, Vec<f64>, Vec<f64>, Vec<f64>);

/// The open-loop writer: batch `k` is due `k · COMMIT_EVERY_MS` after
/// the epoch whether or not earlier commits ran late. Between commits
/// it polls the follower to time replication lag.
fn write_loop(
    pair: &Pair,
    present: &[Vec<u32>],
    seed: u64,
    epoch: Instant,
    until: Instant,
) -> Result<WriterOut, String> {
    let mut commits = vec![(pair.base, Batch::new())];
    let (mut commit_ms, mut late_ms, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let every = Duration::from_millis(COMMIT_EVERY_MS);
    let mut k = 1u32;
    loop {
        let due = epoch + every * k;
        // Wait for the due time, timing lag of earlier commits.
        loop {
            let now = Instant::now();
            while let Some(&(pos, t)) = pending.front() {
                if pair.follower.position() < pos {
                    break;
                }
                lag_ms.push(now.duration_since(t).as_secs_f64() * 1e3);
                pending.pop_front();
            }
            if now >= due || now >= until {
                break;
            }
            std::thread::sleep(Duration::from_micros(250).min(due - now));
        }
        if Instant::now() >= until {
            break;
        }
        let batch = script::write_batch(seed, k as usize, present, BATCH_CELLS);
        let start = Instant::now();
        let pos = pair.commit(&batch)?;
        let done = Instant::now();
        late_ms.push(start.duration_since(due).as_secs_f64() * 1e3);
        commit_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
        pending.push_back((pos, done));
        commits.push((pos, batch));
        k += 1;
    }
    // Lag of the last commits: wait for the follower (bounded).
    let t0 = Instant::now();
    while let Some(&(pos, t)) = pending.front() {
        if pair.follower.position() >= pos {
            lag_ms.push(t.elapsed().as_secs_f64() * 1e3);
            pending.pop_front();
        } else if t0.elapsed() > Duration::from_secs(10) {
            return Err("follower did not catch up with the writer".into());
        } else {
            std::thread::sleep(Duration::from_micros(250));
        }
    }
    Ok((commits, commit_ms, late_ms, lag_ms))
}

/// Oracle checks; marks disagreeing requests in `bad`. Returns, for
/// ingest-follow, the commit index each read was matched to.
fn check(
    cfg: &Config,
    data: &Arc<SharedData>,
    load: &Load,
    served: &[&Served],
    bad: &mut [bool],
    out: &mut RunOut,
) -> Vec<usize> {
    let reply_of = |s: &Served| -> &str { &load.clients[s.conn].replies[s.reply] };
    match cfg.kind {
        Kind::EditSession | Kind::Report => {
            let keys = served.iter().map(|s| s.req.key()).collect();
            let want = oracle::serial_replies(data, &keys);
            for (i, s) in served.iter().enumerate() {
                if want.get(&s.req.key()).map(String::as_str) != Some(reply_of(s)) {
                    if !bad[i] {
                        out.problems.push(format!(
                            "conn {} `{}` differs from the serial replay",
                            s.conn,
                            s.req.line.chars().take(80).collect::<String>()
                        ));
                    }
                    bad[i] = true;
                }
            }
            Vec::new()
        }
        Kind::IngestFollow => {
            let reads: Vec<oracle::Read<'_>> = served
                .iter()
                .map(|s| {
                    let (before, after) = s.pos.expect("follower reads record positions");
                    oracle::Read {
                        line: &s.req.line,
                        reply: reply_of(s),
                        before,
                        after,
                    }
                })
                .collect();
            let (chosen, violations) = oracle::check_follower_reads(data, &load.commits, &reads);
            out.problems.extend(violations);
            for (i, (c, r)) in chosen.iter().zip(&reads).enumerate() {
                if c.is_none() {
                    if !bad[i] {
                        out.problems.push(format!(
                            "follower read `{}` matches no committed position in [{}, {}] \
                             (or only one behind an earlier read)",
                            r.line, r.before, r.after
                        ));
                    }
                    bad[i] = true;
                }
            }
            chosen.into_iter().map(|c| c.unwrap_or(0)).collect()
        }
    }
}

/// A percentile under the sample rule. Smoke-sized runs are exempt:
/// they report the sample maximum instead.
fn pct(samples: &[f64], q: f64, what: &str, tiny: bool, problems: &mut Vec<String>) -> f64 {
    match percentile(samples, q) {
        Ok(v) => v,
        Err(_) if tiny => samples.iter().copied().fold(0.0, f64::max),
        Err(e) => {
            problems.push(format!("{what}: {e}"));
            0.0
        }
    }
}

/// The end-to-end metrics of the measured window (`--trace 0`). Class
/// tails go to the notes: the sample rule needs 100 samples for a p90,
/// which not every class reaches in a window.
fn end_to_end(
    cfg: &Config,
    load: &Load,
    setups: &[f64],
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let served: Vec<&Served> = load.clients.iter().flat_map(|c| c.served.iter()).collect();
    let (from, to) = load.window;
    let mut p50 = |class: Class, what: &str| {
        let v = client::latencies(&served, class, from, to);
        let tail = percentile(&v, TAIL_Q)
            .map(|t| format!("{t:.2} ms"))
            .unwrap_or_else(|_| "n/a (too few samples)".into());
        notes.push(format!("{what}: {} samples, p90 {tail}", v.len()));
        pct(&v, 0.5, what, cfg.tiny, problems)
    };
    let apply = p50(Class::Apply, "apply");
    let mdx = p50(Class::Mdx, "mdx");
    let rollup = p50(Class::Rollup, "rollup");
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    notes.push(format!(
        "set-up: {} runs, fastest {fastest:.4} s, median {:.4} s",
        setups.len(),
        median(setups)
    ));

    let done = served
        .iter()
        .filter(|s| s.start_s >= from && s.start_s + s.ms / 1e3 <= to)
        .count();
    vec![
        ("setup_s".into(), fastest, "s"),
        ("apply_p50_ms".into(), apply, "ms"),
        ("mdx_p50_ms".into(), mdx, "ms"),
        ("rollup_p50_ms".into(), rollup, "ms"),
        ("throughput_rps".into(), done as f64 / cfg.seconds, "1/s"),
    ]
}
