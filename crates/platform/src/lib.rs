//! The simulated server platform for the UniServer reproduction.
//!
//! This crate substitutes the paper's physical testbeds (two Intel x86-64
//! parts, a commodity server with 8 GB DDR3 DIMMs, and the target 64-bit
//! ARM Server-on-Chip) with a behavioural node model. Everything the
//! software stack observes on real hardware is produced here through the
//! same interfaces hardware would offer:
//!
//! * [`msr`] — model-specific registers for voltage offsets and refresh
//!   intervals (the paper's undervolting and refresh-relaxation knobs);
//! * [`mca`] — machine-check records for corrected/uncorrected errors;
//! * [`sensors`] — temperature/voltage/power sensors with realistic noise;
//! * [`pmu`] — performance counters;
//! * [`workload`] — SPEC CPU2006-like workload profiles plus stress
//!   excitations;
//! * [`part`] — part specifications calibrated to the paper's two Intel
//!   processors and the ARM micro-server target;
//! * [`cache`] — ECC-protected cache banks with undervolting behaviour;
//! * [`dram`] — DIMMs, refresh domains and retention-error generation;
//! * [`node`] — the assembled server node with a `run_interval` loop.
//!
//! # Examples
//!
//! ```
//! use uniserver_platform::node::ServerNode;
//! use uniserver_platform::part::PartSpec;
//! use uniserver_platform::workload::WorkloadProfile;
//! use uniserver_units::Seconds;
//!
//! let mut node = ServerNode::new(PartSpec::arm_microserver(), 42);
//! let report = node.run_interval(&WorkloadProfile::spec_bzip2(), Seconds::new(1.0));
//! assert!(report.crash.is_none(), "nominal operation must be stable");
//! assert!(report.energy.as_joules() > 0.0);
//! ```

pub mod cache;
pub mod dram;
pub mod mca;
pub mod msr;
pub mod node;
pub mod part;
pub mod pmu;
pub mod raidr;
pub mod sensors;
pub mod workload;

pub use node::{IntervalReport, Probe, ServerNode};
pub use part::PartSpec;
pub use workload::WorkloadProfile;
