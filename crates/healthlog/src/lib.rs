//! The HealthLog daemon (paper §3.C).
//!
//! "A runtime mechanism that will monitor the system and report errors
//! occurring during uptime … the HealthLog monitor records runtime system
//! metrics in the form of an information vector, stored in a system
//! logfile." The daemon offers the paper's two services:
//!
//! * **Event-driven**: every platform interval is ingested; intervals
//!   containing errors (or a crash) are flagged and thresholds are
//!   evaluated, possibly recommending actions to higher layers (trigger
//!   a StressLog cycle, isolate a resource).
//! * **On-demand**: higher layers (Predictor, Hypervisor) query the
//!   recent vectors, per-origin error ledgers and error rates.
//!
//! Vectors are kept for the rate window, at most `capacity`: the CE-rate
//! service reads nothing older, so the retained state stays bounded
//! however long a node serves. The ledger and the text logfile keep the
//! whole history.
//!
//! # Examples
//!
//! ```
//! use uniserver_healthlog::{HealthLog, ThresholdPolicy};
//! use uniserver_platform::{PartSpec, ServerNode, WorkloadProfile};
//! use uniserver_units::Seconds;
//!
//! let mut node = ServerNode::new(PartSpec::arm_microserver(), 1);
//! let mut health = HealthLog::new(1024, ThresholdPolicy::default());
//! let report = node.run_interval(&WorkloadProfile::spec_bzip2(), Seconds::new(1.0));
//! health.ingest(&report);
//! assert_eq!(health.vectors().len(), 1);
//! ```

mod daemon;
mod ledger;
mod vector;

pub use daemon::{HealthAction, HealthLog, SharedHealthLog, ThresholdPolicy};
pub use ledger::{ErrorLedger, LedgerKey, OriginStats};
pub use vector::{ConfigValues, InfoVector};
