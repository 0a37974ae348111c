//! The served-system benchmark: one command that drives a real
//! `privid-server` through the real `PrividClient` and reports end-to-end
//! and per-layer metrics (see `README.md` next to `Cargo.toml`).
//!
//! Every layer is timed from outside, at a public boundary: the client's
//! four wire calls, a forwarding [`ProcessorFactory`](privid::sandbox::ProcessorFactory),
//! a forwarding [`Vfs`](privid::Vfs), the cache-stats accessors, `parse_query`
//! and an in-process twin of the service. Nothing inside the crates is
//! instrumented.

pub mod check;
pub mod client;
pub mod stats;
pub mod trace;
pub mod workload;
