//! Layered benchmark of the OptiWISE profiling pipeline.
//!
//! The `layerbench` binary drives the pipeline through its public library
//! calls on four workloads, each loading a different layer, checks every
//! result against the exact oracle, and prints end-to-end metrics
//! (untraced) or per-layer metrics (traced) as one JSON line.

pub mod alloc;
pub mod bench;
pub mod stats;
pub mod trace;
pub mod verify;
