//! End-to-end and per-layer benchmark of the cluster tuning-model
//! service (see `README.md` in this directory).
//!
//! [`measure::execute`] sets a workload up from a seed, serves its trace
//! through `ClusterScheduler::run_service` or `run_service_replicated`
//! for a fixed host time, checks every output, and reports the
//! end-to-end metrics — or, traced, the per-layer metrics and the
//! decomposition of a job's host time into layers.

#![warn(missing_docs)]

pub mod alloc;
pub mod gen;
pub mod measure;
pub mod spans;
pub mod speed;
pub mod workload;
