//! Step 1 of the paper's two-step algorithm: channel-count minimisation.
//!
//! Step 1 determines the smallest (even) number of ATE channels `k` on which
//! the complete SOC test fits within the per-channel vector-memory depth
//! `D`, and secondarily minimises the actual memory fill (which equals the
//! SOC test application time). It proceeds greedily (Section 6, Figure 4):
//!
//! 1. compute, for every module, the minimum width at which its own test
//!    meets the depth limit; abort if some module cannot meet it at all;
//! 2. process the modules in order of decreasing minimum width;
//! 3. try to place the module on an existing channel group without
//!    violating the depth; among the feasible groups pick the one that ends
//!    up with the smallest fill;
//! 4. if no group can take the module, consider (a) opening a new group at
//!    the module's minimum width, or (b) widening one existing group just
//!    enough for the module to fit, and pick whichever alternative leaves
//!    the most free vector memory over all used channels.

use crate::architecture::{ChannelGroup, TestArchitecture};
use crate::error::TamError;
use crate::lazy::LazyTimeTable;
use crate::timetable::{clamped_tam_width, max_tam_width, TimeLookup};
use soctest_ate::AteSpec;
use soctest_soc_model::{ModuleId, Soc};

/// Designs the channel-minimal test architecture for `soc` on `ate`
/// (Step 1 of the paper).
///
/// Builds a fresh [`LazyTimeTable`] — a one-shot design only probes a
/// handful of widths per module, so the demand-driven table wins over an
/// eager build. When running sweeps, prefer [`design_with_table`] and
/// share one table.
///
/// # Errors
///
/// * [`TamError::EmptySoc`] if the SOC has no modules,
/// * [`TamError::ModuleInfeasible`] if a module cannot meet the ATE's
///   vector-memory depth at any width,
/// * [`TamError::InsufficientChannels`] if no assignment fits within the
///   ATE's channel count.
pub fn design_minimal_architecture(soc: &Soc, ate: &AteSpec) -> Result<TestArchitecture, TamError> {
    let table = LazyTimeTable::new(soc, max_tam_width(ate.channels));
    design_with_table(&table, ate.channels, ate.vector_memory_depth)
}

/// Step 1 on a prebuilt table (eager [`crate::TimeTable`] or
/// [`LazyTimeTable`] — any [`TimeLookup`]), with an explicit channel budget
/// and memory depth.
///
/// `channels` is the number of ATE channels available to a *single* SOC; the
/// resulting architecture's [`TestArchitecture::total_channels`] never
/// exceeds it.
///
/// # Errors
///
/// See [`design_minimal_architecture`].
pub fn design_with_table<T: TimeLookup + ?Sized>(
    table: &T,
    channels: usize,
    depth: u64,
) -> Result<TestArchitecture, TamError> {
    if table.num_modules() == 0 {
        return Err(TamError::EmptySoc);
    }
    let max_total_width = clamped_tam_width(table, channels);
    if max_total_width == 0 {
        return Err(TamError::InsufficientChannels {
            available_channels: channels,
        });
    }

    // Minimum width per module.
    let mut min_widths = Vec::with_capacity(table.num_modules());
    for m in 0..table.num_modules() {
        let id = ModuleId(m);
        match table.min_width_for_time(id, depth) {
            Some(w) if w <= max_total_width => min_widths.push((id, w)),
            _ => {
                return Err(TamError::ModuleInfeasible {
                    module: format!("{id}"),
                    depth,
                    max_width: max_total_width,
                })
            }
        }
    }

    // Decreasing minimum width; ties broken by decreasing test time at that
    // width (place the bulkiest modules first), then by id for determinism.
    min_widths.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| table.time(b.0, b.1).cmp(&table.time(a.0, a.1)))
            .then_with(|| a.0.cmp(&b.0))
    });

    let mut groups: Vec<ChannelGroup> = Vec::new();
    for &(id, w_min) in &min_widths {
        table.checkpoint();
        if try_place_in_existing_group(table, &mut groups, id, depth) {
            continue;
        }
        place_with_new_capacity(
            table,
            &mut groups,
            id,
            w_min,
            depth,
            max_total_width,
            channels,
        )?;
    }

    Ok(TestArchitecture::new(groups))
}

/// Tries to add `id` to an existing group without widening anything.
/// Returns true on success. Among the feasible groups the one with the
/// smallest resulting fill is chosen.
fn try_place_in_existing_group<T: TimeLookup + ?Sized>(
    table: &T,
    groups: &mut [ChannelGroup],
    id: ModuleId,
    depth: u64,
) -> bool {
    let mut best: Option<(usize, u64)> = None;
    for (g_idx, group) in groups.iter().enumerate() {
        let new_fill = group
            .fill_cycles
            .checked_add(table.time(id, group.width))
            .expect("channel-group fill overflows u64");
        if new_fill <= depth {
            match best {
                Some((_, fill)) if fill <= new_fill => {}
                _ => best = Some((g_idx, new_fill)),
            }
        }
    }
    if let Some((g_idx, new_fill)) = best {
        groups[g_idx].modules.push(id);
        groups[g_idx].fill_cycles = new_fill;
        true
    } else {
        false
    }
}

/// Places `id` by spending additional channels, following Figure 4 of the
/// paper: every alternative adds exactly the module's minimum width
/// `w_min` — either as a brand-new group (alternative *i*) or appended to
/// one of the existing groups (alternatives *ii*, *iii*, ...). All
/// alternatives therefore cost the same number of ATE channels, and the one
/// that leaves the most free vector memory over all used channels (i.e. the
/// smallest total fill) is selected.
///
/// Alternatives are scored by the free-memory *delta* of the one group each
/// of them changes — the untouched groups contribute identically to every
/// alternative, so they cancel out of the comparison. This avoids the
/// O(modules · groups²) candidate clones of the naive formulation (clone
/// the whole `Vec<ChannelGroup>` per alternative, re-sum every group) while
/// selecting exactly the same alternative; only the winner is applied, in
/// place.
fn place_with_new_capacity<T: TimeLookup + ?Sized>(
    table: &T,
    groups: &mut Vec<ChannelGroup>,
    id: ModuleId,
    w_min: usize,
    depth: u64,
    max_total_width: usize,
    channels: usize,
) -> Result<(), TamError> {
    let used_width: usize = groups.iter().map(|g| g.width).sum();
    if used_width + w_min > max_total_width {
        return Err(TamError::InsufficientChannels {
            available_channels: channels,
        });
    }

    // Free memory contributed by a group of `width` and `fill` (in
    // channel-cycles); i128 so deltas can go negative without wrapping.
    let contribution =
        |width: usize, fill: u64| depth.saturating_sub(fill) as i128 * (2 * width) as i128;

    // Alternative (i): open a new group at the module's minimum width.
    // Its delta is the whole contribution of the new group.
    let new_group_fill = table.time(id, w_min);
    let mut best_delta = contribution(w_min, new_group_fill);
    let mut best_widened: Option<(usize, u64)> = None; // (group index, new fill)

    // Alternatives (ii..): widen one existing group by exactly `w_min` and
    // absorb the module there, when that meets the depth. The delta is the
    // widened group's contribution minus its current one.
    for (g_idx, group) in groups.iter().enumerate() {
        let new_width = group.width + w_min;
        if new_width > table.max_width() {
            continue;
        }
        let new_fill = table
            .group_fill(&group.modules, new_width)
            .checked_add(table.time(id, new_width))
            .expect("channel-group fill overflows u64");
        if new_fill > depth {
            continue;
        }
        let delta =
            contribution(new_width, new_fill) - contribution(group.width, group.fill_cycles);
        if delta > best_delta {
            best_delta = delta;
            best_widened = Some((g_idx, new_fill));
        }
    }

    match best_widened {
        None => groups.push(ChannelGroup::new(w_min, vec![id], table)),
        Some((g_idx, new_fill)) => {
            let group = &mut groups[g_idx];
            group.width += w_min;
            group.modules.push(id);
            group.fill_cycles = new_fill;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timetable::TimeTable;
    use soctest_soc_model::benchmarks::{d695, p22810, p34392, p93791};
    use soctest_soc_model::{Module, Soc};

    fn check_architecture(arch: &TestArchitecture, soc: &Soc, channels: usize, depth: u64) {
        // Every module assigned exactly once.
        let assigned = arch.assigned_modules();
        let expected: Vec<ModuleId> = soc.module_ids().collect();
        assert_eq!(
            assigned, expected,
            "every module must be assigned exactly once"
        );
        // Channel budget respected, channel count even.
        assert!(arch.total_channels() <= channels);
        assert_eq!(arch.total_channels() % 2, 0);
        // Memory depth respected.
        assert!(
            arch.fits(depth),
            "fill {} > depth {depth}",
            arch.test_time_cycles()
        );
    }

    #[test]
    fn d695_fits_published_operating_points() {
        let soc = d695();
        // Table 1 of the paper: at 48K depth d695 needs k=28 channels; at
        // 128K it needs k=12. Allow a small slack around the published
        // points since the benchmark data here is a reconstruction.
        let cases = [(48 * 1024, 28usize), (64 * 1024, 22), (128 * 1024, 12)];
        for (depth, expected_k) in cases {
            let ate = AteSpec::new(256, depth, 5.0e6);
            let arch = design_minimal_architecture(&soc, &ate).unwrap();
            check_architecture(&arch, &soc, 256, depth);
            let k = arch.total_channels();
            assert!(
                k as i64 - expected_k as i64 <= 4 && expected_k as i64 - (k as i64) <= 4,
                "depth {depth}: got k={k}, paper k={expected_k}"
            );
        }
    }

    #[test]
    fn all_itc02_benchmarks_produce_valid_architectures() {
        let cases: [(Soc, u64); 4] = [
            (d695(), 64 * 1024),
            (p22810(), 512 * 1024),
            (p34392(), 1024 * 1024),
            (p93791(), 2 * 1024 * 1024),
        ];
        for (soc, depth) in cases {
            let ate = AteSpec::new(512, depth, 5.0e6);
            let arch = design_minimal_architecture(&soc, &ate)
                .unwrap_or_else(|e| panic!("{}: {e}", soc.name()));
            check_architecture(&arch, &soc, 512, depth);
        }
    }

    #[test]
    fn deeper_memory_never_needs_more_channels() {
        let soc = p22810();
        let mut prev = usize::MAX;
        for depth_kv in [384u64, 512, 768, 1024] {
            let ate = AteSpec::new(512, depth_kv * 1024, 5.0e6);
            let arch = design_minimal_architecture(&soc, &ate).unwrap();
            let k = arch.total_channels();
            assert!(k <= prev, "depth {depth_kv}K: k={k} > previous {prev}");
            prev = k;
        }
    }

    #[test]
    fn empty_soc_is_rejected() {
        let soc = Soc::new("empty");
        let ate = AteSpec::new(64, 1024, 1.0e6);
        assert_eq!(
            design_minimal_architecture(&soc, &ate),
            Err(TamError::EmptySoc)
        );
    }

    #[test]
    fn infeasible_module_is_reported() {
        // A module whose floor time exceeds the depth no matter the width.
        let soc = Soc::from_modules(
            "huge",
            vec![Module::builder("mega")
                .patterns(10_000)
                .inputs(4)
                .outputs(4)
                .scan_chain(10_000)
                .build()],
        );
        let ate = AteSpec::new(64, 1024, 1.0e6);
        match design_minimal_architecture(&soc, &ate) {
            Err(TamError::ModuleInfeasible { .. }) => {}
            other => panic!("expected ModuleInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn insufficient_channels_is_reported() {
        // Two modules that each need the full (tiny) channel budget.
        let module = |name: &str| {
            Module::builder(name)
                .patterns(100)
                .inputs(2)
                .outputs(2)
                .scan_chains([100u64, 100])
                .build()
        };
        let soc = Soc::from_modules("pair", vec![module("a"), module("b")]);
        // Depth forces width 2 per module; only 2 channels (width 1) exist in total.
        let ate = AteSpec::new(2, 6_000, 1.0e6);
        let result = design_minimal_architecture(&soc, &ate);
        assert!(
            matches!(
                result,
                Err(TamError::InsufficientChannels { .. }) | Err(TamError::ModuleInfeasible { .. })
            ),
            "got {result:?}"
        );
    }

    #[test]
    fn single_module_soc_gets_its_minimum_width() {
        let soc = Soc::from_modules(
            "single",
            vec![Module::builder("core")
                .patterns(50)
                .inputs(8)
                .outputs(8)
                .scan_chains([200u64, 200, 200, 200])
                .build()],
        );
        let table = TimeTable::build(&soc, 32);
        let depth = table.time(ModuleId(0), 3);
        let arch = design_with_table(&table, 64, depth).unwrap();
        assert_eq!(arch.groups.len(), 1);
        assert_eq!(arch.groups[0].width, 3);
        assert_eq!(arch.total_channels(), 6);
    }

    #[test]
    fn generous_depth_collapses_to_few_channels() {
        let soc = d695();
        let ate = AteSpec::new(256, u64::MAX / 4, 5.0e6);
        let arch = design_minimal_architecture(&soc, &ate).unwrap();
        // Everything fits serially on a single narrow group.
        assert_eq!(arch.total_channels(), 2);
        assert_eq!(arch.groups.len(), 1);
    }

    #[test]
    fn step1_is_deterministic() {
        let soc = p34392();
        let ate = AteSpec::new(512, 1024 * 1024, 5.0e6);
        let a = design_minimal_architecture(&soc, &ate).unwrap();
        let b = design_minimal_architecture(&soc, &ate).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tighter_depth_uses_more_channels_for_p93791() {
        let soc = p93791();
        let shallow =
            design_minimal_architecture(&soc, &AteSpec::new(512, 1_000_000, 5.0e6)).unwrap();
        let deep = design_minimal_architecture(&soc, &AteSpec::new(512, 3_512_000, 5.0e6)).unwrap();
        assert!(shallow.total_channels() > deep.total_channels());
    }
}
