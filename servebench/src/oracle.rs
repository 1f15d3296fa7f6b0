//! The serial oracle: the same lines replayed one at a time through
//! `Session::handle` on a private, cache-off dataset, outside the timed
//! window.

use crate::script::Batch;
use polap_cli::{Outcome, Session, SharedData};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

pub type Key = (Vec<String>, String);

fn text(o: Outcome) -> String {
    match o {
        Outcome::Continue(t) | Outcome::Quit(t) | Outcome::Deadline(t) => t,
    }
}

/// Lines that change a session's fork state when run.
fn changes_state(line: &str) -> bool {
    let verb = line.split_whitespace().next().unwrap_or("");
    matches!(verb, ".fork" | ".switch" | ".change") || (verb == ".apply" && line.trim() != ".apply")
}

/// Serial replies for every distinct `(context, line)` key: a fresh
/// session replays the context, then runs the line. Keys that share a
/// context share one session for their read-only lines; state-changing
/// lines get a session each. Context lines' own replies are recorded
/// too, as the keys they are.
pub fn serial_replies(shared: &Arc<SharedData>, keys: &BTreeSet<Key>) -> HashMap<Key, String> {
    let mut memo: HashMap<Key, String> = HashMap::new();
    let mut by_ctx: BTreeMap<&Vec<String>, Vec<&String>> = BTreeMap::new();
    for (ctx, line) in keys {
        by_ctx.entry(ctx).or_default().push(line);
    }
    // Longest contexts first: their replays fill in shorter keys.
    let mut groups: Vec<_> = by_ctx.into_iter().collect();
    groups.sort_by_key(|(ctx, _)| std::cmp::Reverse(ctx.len()));
    let replay = |memo: &mut HashMap<Key, String>, ctx: &[String]| -> Session {
        let mut s = Session::attach(Arc::clone(shared));
        for (i, l) in ctx.iter().enumerate() {
            let reply = text(s.handle(l));
            memo.entry((ctx[..i].to_vec(), l.clone())).or_insert(reply);
        }
        s
    };
    for (ctx, lines) in groups {
        let todo: Vec<&String> = lines
            .into_iter()
            .filter(|l| !memo.contains_key(&(ctx.clone(), (*l).clone())))
            .collect();
        let (stateful, readonly): (Vec<&String>, Vec<&String>) =
            todo.into_iter().partition(|l| changes_state(l));
        if !readonly.is_empty() {
            let mut s = replay(&mut memo, ctx);
            for l in readonly {
                let reply = text(s.handle(l));
                memo.insert((ctx.clone(), l.clone()), reply);
            }
        }
        for l in stateful {
            let mut s = replay(&mut memo, ctx);
            let reply = text(s.handle(l));
            memo.insert((ctx.clone(), l.clone()), reply);
        }
    }
    memo
}

/// One follower read to check: its line, its reply, and the follower
/// positions seen just before sending and just after the reply.
pub struct Read<'a> {
    pub line: &'a str,
    pub reply: &'a str,
    pub before: u64,
    pub after: u64,
}

/// The ingest-follow oracle. `commits[j]` is the leader position after
/// batch `j` (`commits[0]` is the base image, with an empty batch).
/// Each read must equal the leader's serial reply at a committed
/// position between the follower positions seen around it, and the
/// positions matched must never go backward along the connection. The
/// oracle replays the batches in order on `shared` (private, cache-off,
/// memory-backed), evaluating a read's line at its candidate positions
/// from the lowest up and stopping at the first match. `reads` are one
/// connection's, in order, so their candidate ranges only move forward
/// and the replay never needs to step back. Returns the matched commit
/// index per read (`None` where nothing matched) and any other
/// violation (a failed oracle write).
pub fn check_follower_reads(
    shared: &Arc<SharedData>,
    commits: &[(u64, Batch)],
    reads: &[Read<'_>],
) -> (Vec<Option<usize>>, Vec<String>) {
    let mut session = Session::attach(Arc::clone(shared));
    let mut memo: HashMap<(usize, &str), String> = HashMap::new();
    let mut applied = 0usize;
    let mut violations = Vec::new();
    let mut chosen = Vec::with_capacity(reads.len());
    let mut floor = 0usize;
    for r in reads {
        let candidates =
            (floor..commits.len()).filter(|&j| commits[j].0 >= r.before && commits[j].0 <= r.after);
        let mut hit = None;
        for j in candidates {
            let reply = match memo.entry((j, r.line)) {
                Entry::Occupied(e) => e.into_mut(),
                // Already passed: no later read can need it.
                Entry::Vacant(_) if j < applied => continue,
                Entry::Vacant(e) => {
                    while applied < j {
                        applied += 1;
                        for (coords, v) in &commits[applied].1 {
                            if let Err(e) =
                                shared.cube().set(coords, olap_store::CellValue::num(*v))
                            {
                                violations.push(format!("oracle write: {e}"));
                            }
                        }
                        if let Err(e) = shared.cube().flush() {
                            violations.push(format!("oracle flush: {e}"));
                        }
                    }
                    e.insert(text(session.handle(r.line)))
                }
            };
            if reply == r.reply {
                hit = Some(j);
                break;
            }
        }
        if let Some(j) = hit {
            floor = j;
        }
        chosen.push(hit);
    }
    (chosen, violations)
}
