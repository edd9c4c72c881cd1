//! Experiment harness shared by every table/figure regenerator: simulated
//! world assembly, ground-truth change tracking, signal↔change matching,
//! and result printing/serialization.

#![forbid(unsafe_code)]

pub mod eval;
pub mod retro;
pub mod table;
pub mod weather;
pub mod world;

pub use eval::{ChangeEvent, ChangeKind, GroundTruthTracker, Matcher, PairId, TechniqueStats};
pub use retro::{run_retrospective, RetroResult};
pub use weather::{
    FeedModel, Regime, TruthEvent, TruthKind, WeatherScale, WeatherWorld, WINDOW_SECS,
};
pub use world::{split_probes, World, WorldConfig};
