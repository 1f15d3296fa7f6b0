//! A smoke-sized run of every workload, untraced and traced: every
//! served reply must pass the serial oracle, and the traced replay must
//! reproduce the served replies with repeatable counters.

use servebench::run::{run, Config};
use servebench::script::Kind;

#[test]
fn tiny_runs_pass_every_oracle_check() {
    for kind in [Kind::EditSession, Kind::Report, Kind::IngestFollow] {
        for trace in [false, true] {
            let out = run(Config {
                kind,
                seed: 9,
                seconds: 0.5,
                trace,
                tiny: true,
            })
            .unwrap_or_else(|e| panic!("{kind:?} (trace {trace}): {e}"));
            assert!(out.attempted > 0, "{kind:?}: nothing was served");
            assert!(
                out.correct(),
                "{kind:?} (trace {trace}): {} failed, {:?}",
                out.failed,
                out.problems
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
            let want = if trace {
                "core.exec_ms"
            } else {
                "apply_p50_ms"
            };
            assert!(names.contains(&want), "{kind:?}: {names:?}");
        }
    }
}
