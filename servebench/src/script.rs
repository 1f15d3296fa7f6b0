//! Seeded request scripts for the three workloads. The server sees only
//! the generated lines; everything here is a pure function of the seed.
//!
//! Each request carries the oracle *context*: the shortest line
//! sequence that brings a fresh session to a state in which the request
//! replies byte-identically to the served one. Stateless lines (MDX,
//! `.rollup`, an argful `.apply`) have an empty context; fork verbs and
//! a positive bare `.apply` carry the episode's fork-structure lines; a
//! negative bare `.apply` carries the argful `.apply` that set its fork.
//! The serial oracle evaluates each distinct `(context, line)` once.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// The generator for `seed`, decorrelated per `stream` so that two
/// consumers of one seed (say, two connections) draw independently.
fn rng_for(seed: u64, stream: u64) -> StdRng {
    // SplitMix64 states one golden-ratio step apart yield one sequence
    // shifted by a draw; hashing the start state through a first draw
    // keeps neighbouring streams apart.
    let start = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
    StdRng::seed_from_u64(start)
}

/// `k` distinct values from `0..n`, ascending.
fn subset(rng: &mut StdRng, n: u32, k: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n).collect();
    let k = k.min(all.len());
    for i in 0..k {
        let j = rng.random_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Request class, for per-class latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Apply,
    Mdx,
    Rollup,
    /// Fork verbs: cheap session-state edits, counted in throughput only.
    Other,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub line: String,
    pub class: Class,
    pub ctx: Vec<String>,
}

impl Req {
    fn new(line: impl Into<String>, class: Class, ctx: Vec<String>) -> Req {
        Req {
            line: line.into(),
            class,
            ctx,
        }
    }

    /// The oracle key.
    pub fn key(&self) -> (Vec<String>, String) {
        (self.ctx.clone(), self.line.clone())
    }
}

/// A run of requests sent over one session. With `fresh_session`, the
/// client opens a new connection (a new server session) for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    pub reqs: Vec<Req>,
    pub fresh_session: bool,
}

/// Month names of the datasets' ordered `Period` dimension.
pub const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

const SETS: [&str; 3] = [
    "EmployeesWithAtleastOneMove-Set1",
    "EmployeesWithAtleastOneMove-Set2",
    "EmployeesWithAtleastOneMove-Set3",
];

const COLUMNS: &str = "{CrossJoin({[Account].Levels(0).Members}, \
                       {([Current], [Local], [BU Version_1], [HSP_InputValue])})} ON COLUMNS";

fn perspective_clause(moments: &[u32], semantics: &str) -> String {
    let list: Vec<String> = moments
        .iter()
        .map(|&m| format!("({})", MONTHS[m as usize]))
        .collect();
    format!(
        "WITH PERSPECTIVE {{{}}} FOR Department {semantics}",
        list.join(", ")
    )
}

fn mdx_keyword(sem: &str) -> &'static str {
    match sem {
        "static" => "STATIC",
        _ => "DYNAMIC FORWARD",
    }
}

fn moments_arg(moments: &[u32]) -> String {
    moments
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Fig. 10(a): every changing employee, all periods (the large grid).
pub fn fig10a(moments: &[u32], sem: &str) -> String {
    format!(
        "{} SELECT {COLUMNS}, {{CrossJoin({{Union({{Union({{[{}].Children}}, {{[{}].Children}})}}, \
         {{[{}].Children}})}}, {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
         DIMENSION PROPERTIES [Department] ON ROWS FROM [App].[Db]",
        perspective_clause(moments, mdx_keyword(sem)),
        SETS[0],
        SETS[1],
        SETS[2],
    )
}

/// Fig. 10(b): the two-instance employee `EmployeeS3`.
pub fn fig10b(moments: &[u32]) -> String {
    format!(
        "{} SELECT {COLUMNS}, {{CrossJoin({{[EmployeeS3].Children}}, \
         {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
         DIMENSION PROPERTIES [Department] ON ROWS FROM [App].[Db]",
        perspective_clause(moments, "DYNAMIC FORWARD"),
    )
}

/// Fig. 10(c)'s shape: the first `head` employees of one named set.
pub fn fig10c(moments: &[u32], sem: &str, set: usize, head: u32) -> String {
    format!(
        "{} SELECT {COLUMNS}, {{CrossJoin({{Head({{[{}].Children}}, {head})}}, \
         {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
         DIMENSION PROPERTIES [Department] ON ROWS FROM [App].[Db]",
        perspective_clause(moments, mdx_keyword(sem)),
        SETS[set % SETS.len()],
    )
}

/// A plain (scenario-free) dashboard query over the current base.
pub fn dashboard(dept: u32, accounts: bool) -> String {
    let cols = if accounts {
        "{[Account].Levels(0).Members}"
    } else {
        "{[Scenario].Levels(0).Members}"
    };
    format!(
        "SELECT {cols} ON COLUMNS, {{Descendants([Period], 1, SELF_AND_AFTER)}} ON ROWS \
         FROM [App].[Db] WHERE ([dept{dept:03}])"
    )
}

fn semantics(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "static"
    } else {
        "forward"
    }
}

/// Edits a perspective set: add, drop or move one moment (never empty).
fn edit_moments(rng: &mut StdRng, moments: &[u32]) -> Vec<u32> {
    let mut out = moments.to_vec();
    let free: Vec<u32> = (0..12).filter(|m| !out.contains(m)).collect();
    match rng.random_range(0..3u32) {
        0 if !free.is_empty() => out.push(free[rng.random_range(0..free.len())]),
        1 if out.len() > 1 => {
            out.remove(rng.random_range(0..out.len()));
        }
        _ => {
            let i = rng.random_range(0..out.len());
            out[i] = free[rng.random_range(0..free.len())];
        }
    }
    out.sort_unstable();
    out
}

/// Shapes the edit-session episodes cycle through: every run sees the
/// same mix of perspective counts, semantics and positive forks.
pub const EDIT_SHAPES: usize = 12;

/// Edit-session episode number `n` of connection `conn`: apply a new
/// perspective set and look at it as a small Fig. 10(c) grid (every
/// other episode also rolls up here), fork and edit it and look again,
/// toggle back with `.switch` + bare `.apply`, every third episode fork
/// a positive change, and end on a `.rollup`.
/// Each episode is new (its first two applies run cold; the views and
/// the toggle are served from the scenario cache). Its shape depends
/// only on `n`, so every seed has the same mix; the seed picks the
/// moments, grids and changes.
pub fn edit_episode(seed: u64, conn: usize, n: usize) -> Episode {
    let i = n % EDIT_SHAPES;
    let mut rng = rng_for(
        seed,
        0x6564_6974_0000_0000 + ((conn as u64) << 32) + n as u64,
    );
    let sem0 = semantics(i);
    let sem1 = semantics(i / 2 + 1);
    let p0 = subset(&mut rng, 12, 1 + i % 4);
    let p1 = edit_moments(&mut rng, &p0);
    let set = rng.random_range(0..3usize);
    let heads: Vec<u32> = (0..2).map(|_| rng.random_range(3..=12u32)).collect();
    let apply0 = format!(".apply {sem0} {}", moments_arg(&p0));
    let apply1 = format!(".apply {sem1} {}", moments_arg(&p1));

    let mut reqs = Vec::new();
    let mut structure: Vec<String> = Vec::new();
    let mut fork_verb = |reqs: &mut Vec<Req>, line: String| {
        reqs.push(Req::new(line.clone(), Class::Other, structure.clone()));
        structure.push(line);
    };
    reqs.push(Req::new(apply0.clone(), Class::Apply, vec![]));
    reqs.push(Req::new(
        fig10c(&p0, sem0, set, heads[0]),
        Class::Mdx,
        vec![],
    ));
    if !i.is_multiple_of(2) {
        reqs.push(Req::new(".rollup", Class::Rollup, vec![]));
    }
    fork_verb(&mut reqs, ".fork alt".into());
    reqs.push(Req::new(apply1, Class::Apply, vec![]));
    reqs.push(Req::new(
        fig10c(&p1, sem1, set, heads[1]),
        Class::Mdx,
        vec![],
    ));
    fork_verb(&mut reqs, ".switch main".into());
    reqs.push(Req::new(".apply", Class::Apply, vec![apply0]));
    if i.is_multiple_of(3) {
        // A positive fork: move one or two employees to another
        // department from some moment on.
        fork_verb(&mut reqs, ".fork pos".into());
        for _ in 0..1 + i % 2 {
            let emp = rng.random_range(0..400u32);
            let dept = (emp % 12 + 1 + rng.random_range(0..11u32)) % 12;
            let at = rng.random_range(0..12u32);
            fork_verb(&mut reqs, format!(".change emp{emp:05} dept{dept:03} {at}"));
        }
        let ctx = structure.clone();
        reqs.push(Req::new(".apply", Class::Apply, ctx));
    }
    reqs.push(Req::new(".rollup", Class::Rollup, vec![]));
    Episode {
        reqs,
        fresh_session: true,
    }
}

/// The report workload's line pools: Fig. 10(a)/(b)/(c) queries over
/// k ∈ 1..=12 perspectives, whole-cube `.apply`s, and `.rollup`.
pub struct ReportLines {
    pub mdx: Vec<String>,
    pub apply: Vec<String>,
}

pub fn report_lines(seed: u64) -> ReportLines {
    let mut rng = rng_for(seed, 0x7265_706f);
    let mut mdx = Vec::new();
    for k in 1..=12usize {
        let p = subset(&mut rng, 12, k);
        mdx.push(fig10a(&p, semantics(k)));
        let p = subset(&mut rng, 12, k);
        mdx.push(fig10b(&p));
        let p = subset(&mut rng, 12, k);
        let head = rng.random_range(5..=25u32);
        mdx.push(fig10c(&p, semantics(k + 1), k, head));
    }
    let apply = [1usize, 2, 3, 4, 6, 8]
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            format!(
                ".apply {} {}",
                semantics(i),
                moments_arg(&subset(&mut rng, 12, k))
            )
        })
        .collect();
    ReportLines { mdx, apply }
}

/// Cards per deck round: the exact class mix every 20 requests.
const DECK: usize = 20;

/// Deals one shuffled deck round of `counts` (apply, mdx, rollup) cards,
/// drawing each card's line uniformly from its pool.
fn deal(
    rng: &mut StdRng,
    counts: (usize, usize, usize),
    apply: &[String],
    mdx: &[String],
) -> Vec<Req> {
    let mut cards: Vec<Req> = Vec::with_capacity(DECK);
    for _ in 0..counts.0 {
        let l = &apply[rng.random_range(0..apply.len())];
        cards.push(Req::new(l.clone(), Class::Apply, vec![]));
    }
    for _ in 0..counts.1 {
        let l = &mdx[rng.random_range(0..mdx.len())];
        cards.push(Req::new(l.clone(), Class::Mdx, vec![]));
    }
    for _ in 0..counts.2 {
        cards.push(Req::new(".rollup", Class::Rollup, vec![]));
    }
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.random_range(0..=i));
    }
    cards
}

/// The ingest-follow reader's lines: one fixed perspective `.apply`
/// (the view the reader polls) and two dashboards over seeded
/// departments. The seed varies what the writer changes and where the
/// dashboards look; every seed polls the same view, so every seed reads
/// the same amount of work.
pub fn ingest_lines(seed: u64) -> ReportLines {
    let mut rng = rng_for(seed, 0x696e_6765);
    let dept = rng.random_range(0..12u32);
    ReportLines {
        apply: vec![".apply forward 0,6".to_string()],
        mdx: vec![dashboard(dept, true), dashboard((dept + 6) % 12, false)],
    }
}

/// Which workload a [`Stream`] generates for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EditSession,
    Report,
    IngestFollow,
}

/// An endless per-connection request stream, one episode at a time.
pub struct Stream {
    kind: Kind,
    seed: u64,
    conn: usize,
    rng: StdRng,
    lines: Option<ReportLines>,
    /// Episodes generated so far (edit-session).
    turn: usize,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64, conn: usize) -> Stream {
        let lines = match kind {
            Kind::EditSession => None,
            Kind::Report => Some(report_lines(seed)),
            Kind::IngestFollow => Some(ingest_lines(seed)),
        };
        Stream {
            kind,
            seed,
            conn,
            rng: rng_for(seed, 0x636f_6e6e + conn as u64),
            lines,
            turn: 0,
        }
    }

    pub fn next_episode(&mut self) -> Episode {
        match self.kind {
            Kind::EditSession => {
                // The connections start half a shape cycle apart.
                let n = self.turn + self.conn * EDIT_SHAPES / 2;
                self.turn += 1;
                edit_episode(self.seed, self.conn, n)
            }
            Kind::Report => {
                let l = self.lines.as_ref().expect("report lines");
                Episode {
                    reqs: deal(&mut self.rng, (5, 11, 4), &l.apply, &l.mdx),
                    fresh_session: false,
                }
            }
            Kind::IngestFollow => {
                let l = self.lines.as_ref().expect("ingest lines");
                Episode {
                    reqs: deal(&mut self.rng, (10, 5, 5), &l.apply, &l.mdx),
                    fresh_session: false,
                }
            }
        }
    }
}

/// One writer batch: `(coordinates, value)` cells set before a flush.
pub type Batch = Vec<(Vec<u32>, f64)>;

/// The ingest-follow writer's `n`th batch: `cells` present cells of the
/// base (drawn from `present`) get new values. Updating existing cells
/// keeps the store's size, and so the readers' work, flat over a run.
pub fn write_batch(seed: u64, n: usize, present: &[Vec<u32>], cells: usize) -> Batch {
    let mut rng = rng_for(seed, 0x7772_6974_0000 + n as u64);
    (0..cells)
        .map(|_| {
            let coords = present[rng.random_range(0..present.len())].clone();
            (coords, rng.random_range(1..=100_000u32) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(kind: Kind, seed: u64, conn: usize, episodes: usize) -> Vec<Episode> {
        let mut s = Stream::new(kind, seed, conn);
        (0..episodes).map(|_| s.next_episode()).collect()
    }

    #[test]
    fn same_seed_same_scripts() {
        for kind in [Kind::EditSession, Kind::Report, Kind::IngestFollow] {
            assert_eq!(take(kind, 7, 0, 20), take(kind, 7, 0, 20), "{kind:?}");
            assert_ne!(take(kind, 7, 0, 20), take(kind, 8, 0, 20), "{kind:?}");
            assert_ne!(take(kind, 7, 0, 20), take(kind, 7, 1, 20), "{kind:?}");
        }
        let present: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 12, i]).collect();
        assert_eq!(
            write_batch(3, 5, &present, 64),
            write_batch(3, 5, &present, 64)
        );
        assert_ne!(
            write_batch(3, 5, &present, 64),
            write_batch(3, 6, &present, 64)
        );
    }

    #[test]
    fn report_decks_keep_an_exact_mix() {
        for ep in take(Kind::Report, 11, 0, 5) {
            let count = |c| ep.reqs.iter().filter(|r| r.class == c).count();
            assert_eq!(
                (count(Class::Apply), count(Class::Mdx), count(Class::Rollup)),
                (5, 11, 4)
            );
        }
    }

    #[test]
    fn bare_applies_carry_the_scenario_that_set_their_fork() {
        let ep = edit_episode(5, 0, 0);
        let bare: Vec<&Req> = ep.reqs.iter().filter(|r| r.line == ".apply").collect();
        assert_eq!(bare.len(), 2, "one toggle and one positive fork");
        assert!(bare[0].ctx[0].starts_with(".apply static "));
        assert!(bare[1].ctx.iter().any(|l| l.starts_with(".change ")));
        assert_eq!(ep.reqs.last().map(|r| r.class), Some(Class::Rollup));
    }
}
