//! Test-architecture (TAM / channel-group) design.
//!
//! This crate implements the architecture-design half of Goel & Marinissen
//! (DATE 2005): partition the ATE channels assigned to one SOC into *channel
//! groups* (TAMs), assign every module to a group, and size the groups such
//! that the whole SOC test fits into the ATE vector memory in a single load.
//!
//! * [`step1`] — Step 1 of the paper's two-step algorithm: minimise the
//!   number of ATE channels used by one SOC (criterion 1) while secondarily
//!   minimising the vector-memory fill (criterion 2),
//! * [`redistribute`] — the channel-redistribution move used by Step 2 when
//!   sites are given up and their channels are handed to the remaining
//!   sites,
//! * [`baseline`] — a reimplementation of the rectangle-bin-packing approach
//!   of Iyengar et al. (ITC 2002, reference \[7\]) and the theoretical lower
//!   bound on the channel count, both used for Table 1,
//! * [`timetable`] — a precomputed module-width-to-test-time table shared
//!   by all algorithms. It is built through the wrapper crate's fast row
//!   kernel (`soctest_wrapper::row`) with rayon parallelism over modules —
//!   two orders of magnitude faster than running a full COMBINE wrapper
//!   design per `(module, width)` pair — while
//!   `TimeTable::build_reference` keeps the full-fidelity loop as a
//!   cross-check and benchmark baseline. All algorithms consume tables
//!   through the [`TimeLookup`] trait,
//! * [`lazy`] — [`LazyTimeTable`], the demand-driven alternative: cells
//!   are computed on first probe only (rayon-safe atomic cache, paged to
//!   the probed footprint), which is what lets the optimizer handle
//!   10k-module and flat (single-module, many-thousand-chain) SOCs
//!   without materialising whole tables,
//! * [`store`] — [`RowStore`], the content-addressed `hash(ModuleShape) →
//!   time row` cache behind the lazy table: rows survive table regrows,
//!   are shared by every SOC with an equal module shape, and persist
//!   across processes in a versioned, checksummed cache file,
//! * [`architecture`] / [`schedule`] — the resulting [`TestArchitecture`]
//!   and an explicit per-group test schedule.
//!
//! Throughout the crate, *width* counts wrapper chains / TAM wires; one unit
//! of width consumes **two** ATE channels (one stimulus, one response),
//! which is why the paper requires the per-SOC channel count `k` to be even.
//!
//! # Example
//!
//! ```
//! use soctest_soc_model::benchmarks::d695;
//! use soctest_ate::AteSpec;
//! use soctest_tam::step1::design_minimal_architecture;
//!
//! let soc = d695();
//! let ate = AteSpec::new(64, 96 * 1024, 5.0e6);
//! let arch = design_minimal_architecture(&soc, &ate)?;
//! assert!(arch.total_channels() <= ate.channels);
//! assert!(arch.test_time_cycles() <= ate.vector_memory_depth);
//! # Ok::<(), soctest_tam::TamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod architecture;
pub mod baseline;
pub mod error;
pub mod lazy;
pub mod redistribute;
pub mod schedule;
pub mod step1;
pub mod store;
pub mod timetable;

pub use architecture::{ChannelGroup, TestArchitecture};
pub use error::TamError;
pub use lazy::{LazyTimeTable, StatsEpoch};
pub use schedule::{ScheduleEntry, TestSchedule};
pub use store::{
    fnv1a64, open_envelope, push_u64, seal_envelope, write_atomic, Cursor, RowStore, RowStoreStats,
    StoreError, StoreRow,
};
pub use timetable::{clamped_tam_width, max_tam_width, TimeLookup, TimeTable};

/// The snapshot/diff counter pattern shared by every observability layer:
/// take an epoch before a unit of work, another after, and
/// `delta_since(&earlier)` attributes exactly what the work added.
/// Implemented by the table epoch ([`StatsEpoch`]), the row-store
/// counters ([`RowStoreStats`]) and the vendored pool's occupancy
/// counters ([`rayon::PoolStats`]).
pub trait EpochDelta: Copy {
    /// Counter growth from `earlier` to `self` (saturating on restarts).
    #[must_use]
    fn delta_since(&self, earlier: &Self) -> Self;
}

impl EpochDelta for StatsEpoch {
    fn delta_since(&self, earlier: &Self) -> Self {
        StatsEpoch::delta_since(self, earlier)
    }
}

impl EpochDelta for RowStoreStats {
    fn delta_since(&self, earlier: &Self) -> Self {
        RowStoreStats::delta_since(self, earlier)
    }
}

impl EpochDelta for rayon::PoolStats {
    fn delta_since(&self, earlier: &Self) -> Self {
        rayon::PoolStats::delta_since(self, earlier)
    }
}
