//! Oracle configuration: scenario generation knobs and tolerance bands.

use spinstreams_runtime::PinningConfig;
use spinstreams_topogen::TopogenConfig;

/// Tolerance bands for the three-way comparison.
///
/// The sim-vs-analysis bands are tight — the discrete-event simulator under
/// pure synthetic time realizes the §3 cost model almost exactly, with
/// residual error from the mailbox-fill transient before backpressure
/// engages (§5.2 attributes its own outliers to the same effect). The
/// threaded band is statistical: thread scheduling on an arbitrary host
/// cannot reproduce modeled parallelism, so only load-independent
/// selectivity ratios are held to it.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Relative error allowed between predicted and sim-measured topology
    /// throughput (items ingested per second).
    pub throughput_rel: f64,
    /// Relative error allowed between predicted and sim-measured
    /// per-operator departure rates.
    pub departure_rel: f64,
    /// Absolute error allowed between predicted utilization `ρ` and the
    /// sim-measured busy fraction.
    pub utilization_abs: f64,
    /// Minimum items an operator must have consumed in a layer before its
    /// rates take part in the comparison (starved low-probability branches
    /// produce meaningless rate estimates).
    pub min_samples: u64,
    /// Relative error allowed between the sim and threaded layers'
    /// measured per-operator selectivity ratios (`items_out / items_in`).
    pub threaded_ratio_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            throughput_rel: 0.06,
            departure_rel: 0.08,
            utilization_abs: 0.15,
            min_samples: 200,
            threaded_ratio_rel: 0.35,
        }
    }
}

/// Configuration of a differential-oracle sweep.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Scenario generator settings. The default uses the fast testbed
    /// profile with a non-identity source-selectivity range, so the sweep
    /// exercises the §3.4 source code paths the hand-written tests miss.
    pub topogen: TopogenConfig,
    /// Items generated per measurement run.
    pub items: u64,
    /// Items generated for the calibration run (§4.1 profiling step).
    pub calibration_items: u64,
    /// Minimum consumed items before calibration rewrites an operator's
    /// annotations.
    pub min_calibration_samples: u64,
    /// Tolerance bands.
    pub tolerances: Tolerances,
    /// Also validate the Algorithm 2 fission plan (`evaluate_with_replicas`
    /// vs a replicated sim deployment) when the plan replicates anything.
    pub check_fission: bool,
    /// Also differential-test the Algorithm 3 fusion path: deploy the
    /// longest fusable stateless chain once monomorphized and once
    /// force-interpreted and require exact per-operator count equality
    /// (skipped when the scenario has no such chain).
    pub check_fusion: bool,
    /// Number of leading seeds that additionally get a smoke-scale
    /// *threaded* run (0 disables the layer; it spins real CPU time).
    pub threaded_runs: usize,
    /// Items for the threaded smoke run. Keep this equal to `items`:
    /// windowed operators' realized selectivity is run-length-dependent
    /// (shorter runs fill fewer windows), and the threaded layer's
    /// selectivity ratios are compared against the sim run's.
    pub threaded_items: u64,
    /// Worker-pool size for the threaded smoke layer (`0` = one per
    /// core). The oracle's comparisons must hold at any worker count.
    pub workers: usize,
    /// Core-pinning policy for the threaded smoke layer
    /// (`EngineConfig::pinning`): the comparisons must also hold when the
    /// engine pins its threads and shards actors by stage.
    pub pinning: PinningConfig,
    /// Delta-debug divergent scenarios down to a minimal counterexample.
    pub minimize: bool,
    /// Hard cap on pipeline evaluations spent minimizing one scenario.
    pub minimize_budget: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            topogen: TopogenConfig {
                source_selectivity_range: Some((0.6, 1.4)),
                ..TopogenConfig::fast()
            },
            items: 6_000,
            calibration_items: 6_000,
            min_calibration_samples: 100,
            tolerances: Tolerances::default(),
            check_fission: true,
            check_fusion: true,
            threaded_runs: 4,
            threaded_items: 6_000,
            workers: 0,
            pinning: PinningConfig::default(),
            minimize: true,
            minimize_budget: 200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = OracleConfig::default();
        assert!(c.tolerances.throughput_rel < c.tolerances.threaded_ratio_rel);
        assert!(c.items >= c.calibration_items);
        assert!(c.topogen.source_selectivity_range.is_some());
        assert!(c.minimize_budget > 0);
    }
}
