//! Precomputed module test times per TAM width.
//!
//! Every architecture-design algorithm repeatedly asks "how long does module
//! `m` test at width `w`?". Answering that question from scratch means
//! running the COMBINE wrapper design, which is cheap but not free; during
//! Step 1 / Step 2 and the parameter sweeps of Section 7 the same
//! `(module, width)` pairs are evaluated thousands of times. [`TimeTable`]
//! computes the whole table once per SOC and serves lookups in O(1).
//!
//! Construction goes through the allocation-free row kernel
//! ([`soctest_wrapper::row::RowKernel`]) and is parallelised over modules
//! with rayon's `map_init` (one scratch kernel per runner task) on the
//! persistent work-stealing pool — so a build triggered from inside an
//! already-parallel engine batch nests onto the same fixed worker set
//! instead of spawning threads or running serially. Results are collected
//! in module order, so parallel builds are bit-identical to
//! [`TimeTable::build_sequential`] at any thread count;
//! [`TimeTable::build_reference`] keeps the original full-fidelity
//! per-(module, width) wrapper-design loop as a cross-check and benchmark
//! baseline.

use rayon::prelude::*;
use soctest_soc_model::{ModuleId, Soc};
use soctest_wrapper::combine::test_time_at_width;
use soctest_wrapper::row::RowKernel;

/// The widest TAM an ATE channel budget can drive: one unit of width costs
/// **two** channels (one stimulus, one response), so `channels / 2`, with a
/// floor of 1 so that a table covering the budget is never zero-width.
///
/// This is the width a fresh [`TimeTable`] / [`crate::LazyTimeTable`] must
/// cover for algorithms running against `channels` ATE channels; every
/// layer (Step 1, the optimizer, the sweeps, the benchmarks) sizes its
/// tables through this one helper so the channels-to-width convention
/// lives in exactly one place.
pub fn max_tam_width(channels: usize) -> usize {
    (channels / 2).max(1)
}

/// The widest *total* TAM width an algorithm may allocate when `channels`
/// ATE channels are available and lookups go through `table`: the channel
/// budget's width ([`max_tam_width`] without the floor), clamped to the
/// widths the table actually covers.
///
/// A zero result means the budget cannot drive even a single wrapper chain
/// — callers report `InsufficientChannels` rather than probing width 0.
pub fn clamped_tam_width<T: TimeLookup + ?Sized>(table: &T, channels: usize) -> usize {
    (channels / 2).min(table.max_width())
}

/// Common lookup interface over module test-time tables.
///
/// Every architecture-design algorithm in this workspace only ever *reads*
/// `(module, width) → cycles`; this trait lets them accept either the
/// eagerly precomputed [`TimeTable`] or the demand-driven
/// [`crate::LazyTimeTable`] (which materialises only the cells an optimizer
/// actually probes) without duplicating any algorithm code. The two
/// implementations are bit-identical on every probed entry
/// (`crates/tam/tests/lazy_equivalence.rs`).
pub trait TimeLookup {
    /// Number of modules covered by the table.
    fn num_modules(&self) -> usize;

    /// The maximum width covered by the table.
    fn max_width(&self) -> usize;

    /// Test time of `module` at `width` wrapper chains.
    ///
    /// # Panics
    ///
    /// Panics if `module` or `width` is out of range.
    fn time(&self, module: ModuleId, width: usize) -> u64;

    /// Marks a row boundary. Algorithms call this once per unit of
    /// row-sized work (one module placed by Step 1, one site count
    /// evaluated by Step 2), so a wrapping table can run per-row
    /// bookkeeping there instead of on every [`TimeLookup::time`] call.
    /// The default does nothing.
    fn checkpoint(&self) {}

    /// The smallest width at which `module` meets `max_cycles`, or `None`
    /// if even the table's maximum width is insufficient.
    ///
    /// The default implementation binary-searches over `time`, probing
    /// O(log max_width) widths — sound because the test-time row is
    /// non-increasing in width (proven in the *Width monotonicity* section
    /// of [`soctest_wrapper::row`]'s module docs, cross-checked by
    /// `crates/tam/tests/proptest_min_width.rs`).
    fn min_width_for_time(&self, module: ModuleId, max_cycles: u64) -> Option<usize> {
        // Lower-bound search: first width whose time fits the budget.
        let mut lo = 1usize;
        let mut hi = self.max_width() + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.time(module, mid) <= max_cycles {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo <= self.max_width()).then_some(lo)
    }

    /// Sum of the test times of `modules` when each is wrapped at `width`.
    ///
    /// This is the vector-memory fill of a channel group of that width
    /// holding those modules (they are tested serially on the group).
    ///
    /// # Panics
    ///
    /// Panics if the fill overflows `u64`: individual times are in-domain
    /// by construction (`fit_u64` in the row kernel), but a serial group
    /// of many huge modules can exceed the domain, and a silent wrap here
    /// would make an over-capacity group look nearly empty to Step 1's
    /// depth checks.
    fn group_fill(&self, modules: &[ModuleId], width: usize) -> u64 {
        modules.iter().fold(0u64, |fill, &m| {
            fill.checked_add(self.time(m, width))
                .expect("channel-group fill overflows u64")
        })
    }
}

/// Precomputed test times: `time(module, width)` for every module of an SOC
/// and every width from 1 to a configured maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeTable {
    /// `times[module][width - 1]` = test time in cycles.
    times: Vec<Vec<u64>>,
    max_width: usize,
}

impl TimeTable {
    /// Builds the table for `soc`, covering widths `1..=max_width`.
    ///
    /// Rows are computed by the fast row kernel and modules are evaluated
    /// in parallel; the result is bit-identical to
    /// [`TimeTable::build_sequential`] and to the full-fidelity
    /// [`TimeTable::build_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn build(soc: &Soc, max_width: usize) -> Self {
        assert!(max_width > 0, "max_width must be at least 1");
        let times = soc
            .modules()
            .par_iter()
            .map_init(RowKernel::new, |kernel, module| {
                kernel.compute(module, max_width)
            })
            .collect();
        TimeTable { times, max_width }
    }

    /// Single-threaded row-kernel build (the same numbers as
    /// [`TimeTable::build`], used by determinism tests).
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn build_sequential(soc: &Soc, max_width: usize) -> Self {
        assert!(max_width > 0, "max_width must be at least 1");
        let mut kernel = RowKernel::new();
        let times = soc
            .modules()
            .iter()
            .map(|module| kernel.compute(module, max_width))
            .collect();
        TimeTable { times, max_width }
    }

    /// Full-fidelity build running the complete COMBINE wrapper design for
    /// every `(module, width)` pair — the original (slow) construction,
    /// kept as the validation cross-check and the benchmark baseline for
    /// the row kernel.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn build_reference(soc: &Soc, max_width: usize) -> Self {
        assert!(max_width > 0, "max_width must be at least 1");
        let times = soc
            .modules()
            .iter()
            .map(|module| {
                (1..=max_width)
                    .map(|w| test_time_at_width(module, w))
                    .collect()
            })
            .collect();
        TimeTable { times, max_width }
    }

    /// The maximum width covered by the table.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Number of modules covered by the table.
    pub fn num_modules(&self) -> usize {
        self.times.len()
    }

    /// Test time of `module` at `width` wrapper chains.
    ///
    /// # Panics
    ///
    /// Panics if `module` or `width` is out of range.
    pub fn time(&self, module: ModuleId, width: usize) -> u64 {
        assert!(
            width >= 1 && width <= self.max_width,
            "width {width} out of range"
        );
        self.times[module.0][width - 1]
    }

    /// The smallest width at which `module` meets `max_cycles`, or `None`
    /// if even the table's maximum width is insufficient.
    pub fn min_width_for_time(&self, module: ModuleId, max_cycles: u64) -> Option<usize> {
        let row = &self.times[module.0];
        // Times are non-increasing in width — a theorem, not an assumption:
        // see the *Width monotonicity* proof in `soctest_wrapper::row`'s
        // module docs (cross-checked by tests/proptest_min_width.rs). The
        // infeasible prefix therefore ends at the first feasible index.
        let first_feasible = row.partition_point(|&t| t > max_cycles);
        (first_feasible < row.len()).then_some(first_feasible + 1)
    }

    /// Sum of the test times of `modules` when each is wrapped at `width`.
    ///
    /// This is the vector-memory fill of a channel group of that width
    /// holding those modules (they are tested serially on the group).
    ///
    /// # Panics
    ///
    /// Panics if the fill overflows `u64` (see [`TimeLookup::group_fill`]).
    pub fn group_fill(&self, modules: &[ModuleId], width: usize) -> u64 {
        modules.iter().fold(0u64, |fill, &m| {
            fill.checked_add(self.time(m, width))
                .expect("channel-group fill overflows u64")
        })
    }

    /// Minimal "test data area" (width x time, in channel-cycles of wrapper
    /// chains) of a module over all widths in the table. Used by the
    /// theoretical lower bound on the channel count.
    pub fn min_area(&self, module: ModuleId) -> u64 {
        self.times[module.0]
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u64 + 1) * t)
            .min()
            .expect("max_width >= 1")
    }
}

impl TimeLookup for TimeTable {
    fn num_modules(&self) -> usize {
        TimeTable::num_modules(self)
    }

    fn max_width(&self) -> usize {
        TimeTable::max_width(self)
    }

    fn time(&self, module: ModuleId, width: usize) -> u64 {
        TimeTable::time(self, module, width)
    }

    fn min_width_for_time(&self, module: ModuleId, max_cycles: u64) -> Option<usize> {
        // The in-memory row makes `partition_point` cheaper than probing.
        TimeTable::min_width_for_time(self, module, max_cycles)
    }

    fn group_fill(&self, modules: &[ModuleId], width: usize) -> u64 {
        TimeTable::group_fill(self, modules, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::{benchmarks::d695, Module, ModuleId, Soc};

    fn table() -> (Soc, TimeTable) {
        let soc = d695();
        let table = TimeTable::build(&soc, 24);
        (soc, table)
    }

    #[test]
    fn table_matches_direct_evaluation() {
        let (soc, table) = table();
        for (id, module) in soc.iter() {
            for width in [1usize, 3, 8, 24] {
                assert_eq!(table.time(id, width), test_time_at_width(module, width));
            }
        }
    }

    #[test]
    fn all_build_paths_agree() {
        let soc = d695();
        let parallel = TimeTable::build(&soc, 32);
        let sequential = TimeTable::build_sequential(&soc, 32);
        let reference = TimeTable::build_reference(&soc, 32);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel, reference);
    }

    #[test]
    fn min_width_matches_linear_scan() {
        let (soc, table) = table();
        for (id, module) in soc.iter() {
            let budget = test_time_at_width(module, 5);
            let expected = (1..=24).find(|&w| test_time_at_width(module, w) <= budget);
            assert_eq!(table.min_width_for_time(id, budget), expected);
        }
    }

    #[test]
    fn min_width_none_when_infeasible() {
        let (_, table) = table();
        assert_eq!(table.min_width_for_time(ModuleId(3), 1), None);
    }

    #[test]
    fn trait_default_binary_search_matches_partition_point() {
        // The trait's default probing search (what LazyTimeTable uses) and
        // the eager partition_point must agree on every budget.
        struct Probing<'a>(&'a TimeTable);
        impl TimeLookup for Probing<'_> {
            fn num_modules(&self) -> usize {
                self.0.num_modules()
            }
            fn max_width(&self) -> usize {
                self.0.max_width()
            }
            fn time(&self, module: ModuleId, width: usize) -> u64 {
                self.0.time(module, width)
            }
        }
        let (soc, table) = table();
        let probing = Probing(&table);
        for (id, _) in soc.iter() {
            for width in 1..=24usize {
                let budget = table.time(id, width);
                assert_eq!(
                    probing.min_width_for_time(id, budget),
                    table.min_width_for_time(id, budget)
                );
                assert_eq!(
                    probing.min_width_for_time(id, budget.saturating_sub(1)),
                    table.min_width_for_time(id, budget.saturating_sub(1))
                );
            }
            assert_eq!(probing.min_width_for_time(id, 0), None);
            assert_eq!(probing.min_width_for_time(id, u64::MAX), Some(1));
        }
    }

    #[test]
    #[should_panic(expected = "channel-group fill overflows u64")]
    fn overflowing_group_fill_panics_instead_of_wrapping() {
        // Two modules whose individual test times are in-domain but whose
        // serial group fill exceeds u64: the fill must fail loudly, not
        // wrap to a tiny value that passes the depth checks.
        let huge = |name: &str| Module::builder(name).patterns(u64::MAX / 2 + 1).build();
        let soc = Soc::from_modules("huge_pair", vec![huge("a"), huge("b")]);
        let table = TimeTable::build(&soc, 2);
        let _ = table.group_fill(&[ModuleId(0), ModuleId(1)], 1);
    }

    #[test]
    fn group_fill_is_sum_of_times() {
        let (_, table) = table();
        let ids = [ModuleId(0), ModuleId(4), ModuleId(9)];
        let expected: u64 = ids.iter().map(|&id| table.time(id, 6)).sum();
        assert_eq!(table.group_fill(&ids, 6), expected);
        assert_eq!(table.group_fill(&[], 6), 0);
    }

    #[test]
    fn min_area_is_no_larger_than_any_width_area() {
        let (_, table) = table();
        for m in 0..table.num_modules() {
            let id = ModuleId(m);
            let min_area = table.min_area(id);
            for w in 1..=24 {
                assert!(min_area <= w as u64 * table.time(id, w));
            }
        }
    }

    #[test]
    fn dimensions_are_reported() {
        let (soc, table) = table();
        assert_eq!(table.num_modules(), soc.num_modules());
        assert_eq!(table.max_width(), 24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_out_of_range_panics() {
        let (_, table) = table();
        let _ = table.time(ModuleId(0), 25);
    }

    #[test]
    #[should_panic(expected = "max_width")]
    fn zero_max_width_panics() {
        let soc = Soc::from_modules(
            "x",
            vec![Module::builder("m").patterns(1).inputs(1).build()],
        );
        let _ = TimeTable::build(&soc, 0);
    }

    #[test]
    fn max_tam_width_is_half_the_channels_with_a_floor_of_one() {
        assert_eq!(max_tam_width(0), 1);
        assert_eq!(max_tam_width(1), 1);
        assert_eq!(max_tam_width(2), 1);
        assert_eq!(max_tam_width(3), 1);
        assert_eq!(max_tam_width(256), 128);
        assert_eq!(max_tam_width(513), 256);
    }

    #[test]
    fn clamped_tam_width_respects_both_budget_and_table() {
        let (_, table) = table(); // max_width = 24
        assert_eq!(clamped_tam_width(&table, 256), 24); // table binds
        assert_eq!(clamped_tam_width(&table, 16), 8); // budget binds
        assert_eq!(clamped_tam_width(&table, 1), 0); // too few channels
        assert_eq!(clamped_tam_width(&table, 0), 0);
    }
}
