//! Joint driver sizing and delay padding (paper §3.4).
//!
//! Drivers are sized after *all* of a level's clusters are routed, so
//! buffer drive strength — not detour wire — absorbs the
//! cluster-to-cluster delay spread ("adjustments in downstream buffer
//! sizes").

use crate::assemble::BuiltCluster;
use crate::error::CtsError;
use crate::fault::FaultStage;
use crate::flow::{HierarchicalCts, RunContext};
use crate::route::{LevelNode, NodeSource, RoutedCluster};

/// Aggregates the sizing stage reports upward for the level report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SizingStats {
    /// Input capacitance of every driver and pad inserted, fF.
    pub driver_input_cap_ff: f64,
    /// Area of every driver and pad inserted, µm².
    pub driver_area_um2: f64,
    /// Delay-padding buffers inserted.
    pub pads: usize,
}

/// Sizes every routed cluster's driver, pads fast clusters, and returns
/// the next level's nodes (in cluster order), the finished
/// [`BuiltCluster`]s, and the stage stats. The new clusters' arena
/// indices start at `base` — the caller appends them to the arena *only
/// on success*, so a failed level attempt (degradation-ladder retry)
/// leaves the arena untouched.
pub(crate) fn size_drivers(
    cts: &HierarchicalCts,
    ctx: &RunContext<'_>,
    routed: Vec<RoutedCluster>,
    base: usize,
    level: usize,
    attempt: usize,
) -> Result<(Vec<LevelNode>, Vec<BuiltCluster>, SizingStats), CtsError> {
    ctx.faults
        .check(FaultStage::Sizing, level, None, attempt, &ctx.cancel)?;
    // Joint sizing: every cluster total (subtree + driver delay) should
    // land near a common target — the slowest cluster at its fastest
    // legal cell.
    let slew = cts.tech.source_slew_ps;
    if cts.lib.cells().is_empty() {
        return Err(CtsError::EmptyBufferLibrary);
    }
    let target = routed
        .iter()
        .map(|r| {
            r.subtree_hi
                + cts
                    .lib
                    .cells()
                    .iter()
                    .filter(|c| c.can_drive(r.load))
                    .map(|c| c.delay(slew, r.load))
                    .fold(cts.lib.largest().delay(slew, r.load), f64::min)
        })
        .fold(0.0f64, f64::max);

    let mut next = Vec::new();
    let mut built = Vec::new();
    let mut stats = SizingStats::default();
    for r in routed {
        if ctx.cancel.poll() {
            return Err(CtsError::Cancelled);
        }
        let usable = || {
            cts.lib
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.can_drive(r.load) || c.name == cts.lib.largest().name)
        };
        let cell = if cts.equalize_sizing {
            // Equalize toward the slowest cluster, but never slow a
            // cluster below what the next level's bounded-skew merge can
            // absorb without detour: totals inside
            // [target − window·bound, target] are all fine, so take the
            // *fastest* cell landing in that window (or the closest to
            // it).
            let bound = cts.constraints.skew_ps * cts.level_skew_fraction;
            let window_lo = target - cts.sizing_window_fraction * bound;
            let in_window: Option<usize> = usable()
                .filter(|(_, c)| {
                    let total = r.subtree_hi + c.delay(slew, r.load);
                    total >= window_lo && total <= target + 1e-9
                })
                .min_by(|(_, a), (_, b)| a.delay(slew, r.load).total_cmp(&b.delay(slew, r.load)))
                .map(|(i, _)| i);
            match in_window {
                Some(i) => i,
                None => usable()
                    .min_by(|(_, a), (_, b)| {
                        let da = (r.subtree_hi + a.delay(slew, r.load) - target).abs();
                        let db = (r.subtree_hi + b.delay(slew, r.load) - target).abs();
                        da.total_cmp(&db)
                    })
                    .map(|(i, _)| i)
                    .ok_or(CtsError::EmptyBufferLibrary)?,
            }
        } else {
            // Cheapest (by area) cell within `sizing_slack` of the
            // fastest at this load.
            let fastest = usable()
                .map(|(_, c)| c.delay(slew, r.load))
                .fold(f64::INFINITY, f64::min);
            usable()
                .filter(|(_, c)| c.delay(slew, r.load) <= fastest * cts.sizing_slack)
                .min_by(|(_, a), (_, b)| a.area_um2.total_cmp(&b.area_um2))
                .map(|(i, _)| i)
                .ok_or(CtsError::EmptyBufferLibrary)?
        };
        // Delay padding: when even the slowest usable cell leaves the
        // cluster far ahead of the target, chain small buffers above the
        // driver to make up the rest.
        let pad_cell = &cts.lib.cells()[0];
        let pad_delay = pad_cell.delay(slew, cts.lib.cells()[cell].input_cap_ff);
        let pads = if cts.equalize_sizing && pad_delay > 1e-9 {
            let total = r.subtree_hi + cts.lib.cells()[cell].delay(slew, r.load);
            (((target - total) / pad_delay).floor().max(0.0) as usize).min(8)
        } else {
            0
        };
        let drv = cts.estimator.provisional_delay_for(
            &cts.lib,
            r.load,
            Some(&cts.lib.cells()[cell]),
            slew,
        ) + pads as f64 * pad_delay;
        let input_cap = if pads > 0 {
            pad_cell.input_cap_ff
        } else {
            cts.lib.cells()[cell].input_cap_ff
        };
        stats.driver_input_cap_ff +=
            cts.lib.cells()[cell].input_cap_ff + pads as f64 * pad_cell.input_cap_ff;
        stats.driver_area_um2 += cts.lib.cells()[cell].area_um2 + pads as f64 * pad_cell.area_um2;
        stats.pads += pads;
        let idx = base + built.len();
        next.push(LevelNode {
            pos: r.tap,
            cap_ff: input_cap,
            interval_ps: (r.subtree_lo + drv, r.subtree_hi + drv),
            source: NodeSource::Cluster(idx),
        });
        built.push(BuiltCluster {
            tree: r.tree,
            members: r.members,
            cell,
            pads,
            driver_pos: r.tap,
        });
    }
    if sllt_obs::enabled() {
        sllt_obs::count("cts.sizing.drivers", next.len() as u64);
        sllt_obs::count("cts.sizing.pads", stats.pads as u64);
    }
    Ok((next, built, stats))
}
