//! # spinstreams-serve
//!
//! The multi-tenant serving layer: one long-lived [`StreamService`] hosts
//! many topologies on ONE shared pool executor, the way a production
//! deployment would serve "heavy traffic from millions of users" instead
//! of spinning a private engine per pipeline.
//!
//! Three pieces make repeat submissions cheap and co-tenancy safe:
//!
//! * **Plan cache** ([`PlanCache`]) — every submission is keyed by a
//!   canonical FNV checksum of its topology structure + annotations +
//!   optimizer settings ([`spinstreams_codegen::plan_cache_key`]). A hit
//!   skips profiling, Algorithms 1–3 and plan construction entirely and
//!   reuses the cached optimized plan; byte equality of the cached
//!   canonical plan text is the identity guarantee.
//! * **Shared-pool multiplexing** — admitted tenants deploy together via
//!   [`spinstreams_runtime::run_tenants`]: one worker pool (the engine's
//!   only threaded executor, sized by `EngineConfig::executor`, one worker
//!   per core by default), tenant-tagged tasks, weighted-fair
//!   (deficit-round-robin) ready-queue scheduling, and per-tenant
//!   reports/telemetry/dead-letters. Admission capacity is that pool size.
//! * **Model-driven admission** — at submission the service runs
//!   Algorithm 1 on the optimized candidate and compares its core demand
//!   (`Σ ρ·replicas`, [`spinstreams_analysis::plan_demand_cores`]) against
//!   the pool's free capacity: admit, queue behind running tenants, or
//!   reject with the predicted core deficit
//!   ([`spinstreams_analysis::AdmissionVerdict`]).
//!
//! ```
//! use spinstreams_core::{OperatorSpec, ServiceTime, Topology};
//! use spinstreams_runtime::{EngineConfig, ExecutorKind};
//! use spinstreams_serve::{ServeConfig, StreamService, SubmitRequest, TenantState};
//!
//! fn pipeline() -> Topology {
//!     let mut b = Topology::builder();
//!     let src = b.add_operator(
//!         OperatorSpec::source("src", ServiceTime::from_millis(0.1)).with_kind("source"),
//!     );
//!     let work = b.add_operator(
//!         OperatorSpec::stateless("work", ServiceTime::from_millis(0.05))
//!             .with_kind("identity-map"),
//!     );
//!     b.add_edge(src, work, 1.0).unwrap();
//!     b.build().unwrap()
//! }
//!
//! let mut engine = EngineConfig::default();
//! engine.executor = ExecutorKind::Pool { workers: 2 };
//! let mut cfg = ServeConfig::new(engine);
//! cfg.calibration_items = 0; // trust the annotations in this example
//!
//! let mut svc = StreamService::new(cfg);
//! let cold = svc
//!     .submit(SubmitRequest::new("alpha", pipeline()).with_items(200))
//!     .unwrap();
//! assert_eq!(cold.state, TenantState::Admitted);
//! let runs = svc.launch().unwrap();
//! assert_eq!(runs.len(), 1);
//! // Same topology again: the optimizer is skipped, the plan is identical.
//! let warm = svc
//!     .submit(SubmitRequest::new("beta", pipeline()).with_items(200))
//!     .unwrap();
//! assert!(warm.cache_hit);
//! assert_eq!(warm.plan_checksum, cold.plan_checksum);
//! ```

#![warn(missing_docs)]

mod cache;
mod service;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use service::{
    ServeConfig, ServeError, StreamService, SubmitReceipt, SubmitRequest, TenantState, TenantStatus,
};
