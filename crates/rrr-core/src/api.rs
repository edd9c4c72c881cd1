//! [`DetectorBuilder`]: fluent construction of a detector from behavioral
//! knobs, in place of hand-assembled [`DetectorConfig`] structs for the
//! common paths. [`DetectorBuilder::build_durable`] lands the same
//! configuration inside a crash-safe [`DurableDetector`] in one call.

use crate::detector::{DetectorConfig, StalenessDetector};
use crate::persist::{DurableConfig, DurableDetector};
use crate::signal::Technique;
use rrr_geo::Geolocator;
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_store::StoreError;
use rrr_topology::Topology;
use rrr_types::{VpId, WindowConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Fluent construction of a [`StalenessDetector`] (or a crash-safe
/// [`DurableDetector`]) from behavioral knobs.
///
/// Every setter corresponds to one [`DetectorConfig`] field; unset knobs
/// keep the paper's defaults. The environment (topology, IP-to-AS map,
/// geolocation, alias resolution, vantage points) is input data, not
/// configuration, so it is supplied at [`DetectorBuilder::build`] time.
#[derive(Debug, Clone, Default)]
pub struct DetectorBuilder {
    cfg: DetectorConfig,
}

impl DetectorBuilder {
    /// A builder holding the paper's default configuration.
    pub fn new() -> Self {
        DetectorBuilder::default()
    }

    /// Wraps an existing configuration (for harnesses that already carry
    /// a [`DetectorConfig`] around).
    pub fn from_config(cfg: DetectorConfig) -> Self {
        DetectorBuilder { cfg }
    }

    /// RNG seed for calibration's refresh sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enabled techniques (ablations disable some).
    pub fn techniques(mut self, enabled: impl IntoIterator<Item = Technique>) -> Self {
        self.cfg.enabled = enabled.into_iter().collect();
        self
    }

    /// BGP series window (the paper: 15 minutes).
    pub fn bgp_window(mut self, w: WindowConfig) -> Self {
        self.cfg.bgp_window = w;
        self
    }

    /// Ablation: absorb outliers into series histories instead of removing
    /// them (disables §4.1.2's stationarity preservation).
    pub fn absorb_outliers(mut self, yes: bool) -> Self {
        self.cfg.absorb_outliers = yes;
        self
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Builds the detector against its measurement environment.
    pub fn build(
        self,
        topo: Arc<Topology>,
        map: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        vps: Vec<VpId>,
    ) -> StalenessDetector {
        StalenessDetector::new(topo, map, geo, alias, vps, self.cfg)
    }

    /// Builds the detector and immediately wraps it in crash-safe
    /// persistence rooted at `dir` (initial checkpoint + empty WAL).
    #[allow(clippy::too_many_arguments)]
    pub fn build_durable(
        self,
        topo: Arc<Topology>,
        map: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        vps: Vec<VpId>,
        dir: impl Into<PathBuf>,
        durable: DurableConfig,
    ) -> Result<DurableDetector, StoreError> {
        DurableDetector::create(self.build(topo, map, geo, alias, vps), dir, durable)
    }
}
