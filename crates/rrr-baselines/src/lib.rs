//! Baselines and comparison approaches (§5.3, §6.1, Appendix D): the
//! trace-driven emulation framework, periodic round-robin, Sibyl-style
//! patching, DTRACK, signal-driven refreshing, DTRACK+SIGNALS, and iPlane
//! path splicing.
//!
//! All approaches are emulated against the same pseudo-ground-truth: a
//! per-pair timeline of canonical border-level paths sampled at high rate
//! (the stand-in for the paper's PlanetLab DTRACK dataset). An approach
//! spends a per-round packet budget on full traceroutes (15 packets) or
//! single TTL-limited detection probes (1 packet) and is scored by the
//! fraction of ground-truth changes it detects while they are current.

#![forbid(unsafe_code)]

pub mod dtrack;
pub mod emu;
pub mod iplane;
pub mod signals;
pub mod simple;

pub use dtrack::{Dtrack, DtrackPlusSignals};
pub use emu::{run_emulation, Ctx, EmuResult, EmuWorld, PathTimeline, Strategy, TRACEROUTE_COST};
pub use iplane::{build_splices, valid_splices, PopSequence, Splice};
pub use signals::{optimal_schedule, SignalDriven, SignalSchedule};
pub use simple::{RoundRobin, Sibyl};
