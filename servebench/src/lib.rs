//! Serving benchmark for `olap-server`: three seeded workloads served
//! over TCP by an in-process server, end-to-end metrics from the
//! clients' side, a serial oracle for every reply, and a traced
//! layer-by-layer replay for per-layer metrics. See `README.md`.

pub mod client;
pub mod oracle;
pub mod run;
pub mod script;
pub mod setup;
pub mod stats;
pub mod trace;
