//! Exact critical-point supremum evaluation — the grid-free engine
//! behind [`crate::supremum`]'s hot paths.
//!
//! [`faultline_core::exact`] reduces a fleet's visit times over a
//! window to per-interval affine sets. Here we turn those into the
//! exact supremum of `K(x) = T_k(x) / |x|`: on each open interval the
//! k-th order statistic of affines is piecewise affine with
//! breakpoints only at pairwise crossings, and between breakpoints
//! `K(x) = slope + intercept / x` is monotone — so the interval
//! supremum is a max over the interval endpoints plus the crossings,
//! each evaluated exactly. Evaluating an interval's affines *at* an
//! endpoint yields the one-sided limit there, which dominates the
//! pointwise value (the pointwise visit minimizes over a superset of
//! segments), so the scan provably dominates every grid evaluation of
//! the same fleet. Every scan here, the certified enclosure included,
//! takes its crossing candidates from one stage, `interval_crossings`.
//!
//! The expected-cost variant applies the same candidate argument to
//! the p-faulty closed form of [`faultline_sim::expected_outcome`]:
//! with a fixed membership and ordering of in-horizon visit affines,
//! the expectation is affine in `x`, so extra candidates are needed
//! only where two visit affines cross or where one crosses the
//! horizon.

use faultline_core::coverage::{prefer_argmax, Fleet};
use faultline_core::exact::{all_visit_cover, first_visit_cover, mirrored, Affine, WindowCover};
use faultline_core::{Error, Geometry, Interval, PiecewiseTrajectory, Result, TurnCost};

/// Exponent of the pressure's generalized mean: high enough that only
/// interval suprema within a fraction of a percent of the global
/// supremum contribute.
pub(crate) const PRESSURE_EXPONENT: i32 = 32;

/// Relative margin of the no-crossing certificate in
/// [`interval_crossings`], far above the few ulps its own rounding
/// costs.
const CERTIFICATE_MARGIN: f64 = 1e-9;

/// The result of an exact critical-point supremum scan over
/// `[-xmax, -1] ∪ [1, xmax]` (plus the right-hand limits at `±xmax`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactScan {
    /// The supremum of the scanned ratio; infinite when any interval
    /// is uncovered.
    pub ratio: f64,
    /// The position attaining the supremum (deterministic under ties:
    /// smallest magnitude, then the positive side). For an uncovered
    /// scan, the lower endpoint of the uncovered interval closest to
    /// the origin.
    pub argmax: f64,
    /// Number of inter-critical-point intervals (both sides, window
    /// edges included) not covered by the required visit count.
    pub uncovered: usize,
    /// Total number of critical points enumerated across both sides —
    /// the exact analogue of the historical grid size.
    pub critical_points: usize,
    /// Power-`PRESSURE_EXPONENT` mean of `interval supremum /
    /// global supremum` over the covered intervals, in `(0, 1]`;
    /// `1.0` when the scan is uncovered or non-finite. Proportional
    /// schedules equalize every turning-point peak, so their pressure
    /// sits essentially at 1.
    pub pressure: f64,
}

/// One side's scan accumulator, in positive-window coordinates.
struct SideScan {
    best: Option<(f64, f64)>,
    uncovered: usize,
    uncovered_x: Option<f64>,
    interval_sups: Vec<f64>,
    critical_points: usize,
}

impl SideScan {
    /// An empty accumulator: no candidates, no uncovered intervals and
    /// no critical points. With no trajectory past the window edge the
    /// right-hand limit at `xmax` is unprobed, so the edge counts as
    /// uncovered.
    fn new(cover: Option<&WindowCover>) -> SideScan {
        let mut side = SideScan {
            best: None,
            uncovered: 0,
            uncovered_x: None,
            interval_sups: Vec::with_capacity(cover.map_or(0, WindowCover::interval_count)),
            critical_points: cover.map_or(0, |c| c.cuts().len()),
        };
        if let Some(cover) = cover.filter(|c| c.beyond().is_none()) {
            side.mark_uncovered(cover.cuts()[cover.cuts().len() - 1]);
        }
        side
    }

    fn mark_uncovered(&mut self, x: f64) {
        self.uncovered += 1;
        if self.uncovered_x.is_none_or(|u| x < u) {
            self.uncovered_x = Some(x);
        }
    }

    /// Records one covered interval's supremum and its position.
    fn record(&mut self, best: (f64, f64)) {
        self.interval_sups.push(best.0);
        let replace = match self.best {
            None => true,
            Some((br, bx)) => best.0 > br || (best.0 == br && prefer_argmax(best.1, bx)),
        };
        if replace {
            self.best = Some(best);
        }
    }
}

/// The larger of two sides' suprema in signed coordinates (the
/// negative side's position is mirrored back), with the deterministic
/// tie-break; `(0, 0)` when neither side has one.
fn best_of_sides(pos: Option<(f64, f64)>, neg: Option<(f64, f64)>) -> (f64, f64) {
    match (pos, neg.map(|(r, x)| (r, -x))) {
        (Some((pr, px)), Some((nr, nx))) => {
            if nr > pr || (nr == pr && prefer_argmax(nx, px)) {
                (nr, nx)
            } else {
                (pr, px)
            }
        }
        (Some(p), None) => p,
        (None, Some(n)) => n,
        (None, None) => (0.0, 0.0),
    }
}

fn merge_sides(pos: SideScan, neg: SideScan) -> ExactScan {
    let critical_points = pos.critical_points + neg.critical_points;
    let uncovered = pos.uncovered + neg.uncovered;
    if uncovered > 0 {
        let neg_uncovered_x = neg.uncovered_x.map(|x| -x);
        let argmax = match (pos.uncovered_x, neg_uncovered_x) {
            (Some(p), Some(n)) => {
                if prefer_argmax(p, n) {
                    p
                } else {
                    n
                }
            }
            (Some(p), None) => p,
            (None, Some(n)) => n,
            (None, None) => unreachable!("uncovered > 0 implies an uncovered interval"),
        };
        return ExactScan {
            ratio: f64::INFINITY,
            argmax,
            uncovered,
            critical_points,
            pressure: 1.0,
        };
    }
    let (ratio, argmax) = best_of_sides(pos.best, neg.best);
    let pressure = if ratio.is_finite() && ratio > 0.0 {
        let sups = pos.interval_sups.iter().chain(&neg.interval_sups);
        let count = pos.interval_sups.len() + neg.interval_sups.len();
        let mass: f64 = sups.map(|&s| (s / ratio).powi(PRESSURE_EXPONENT)).sum();
        if count > 0 {
            mass / count as f64
        } else {
            1.0
        }
    } else {
        1.0
    };
    ExactScan { ratio, argmax, uncovered, critical_points, pressure }
}

/// Offers the candidate `value / x` at `x` to a running maximum, with
/// the deterministic tie-break (smaller `x` wins within a side), so the
/// result does not depend on the order candidates are offered in.
fn offer(best: &mut Option<(f64, f64)>, x: f64, value: f64) {
    let r = value / x;
    let replace = match *best {
        None => true,
        Some((br, bx)) => r > br || (r == br && prefer_argmax(x, bx)),
    };
    if replace {
        *best = Some((r, x));
    }
}

/// Max of `value(x) / x` over the candidate positions (see [`offer`]).
fn best_over_candidates(
    candidates: &[f64],
    mut value_at: impl FnMut(f64) -> Option<f64>,
) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    for &x in candidates {
        offer(&mut best, x, value_at(x)?);
    }
    best
}

/// Whether two affines are the same bit for bit.
fn same_affine(a: &Affine, b: &Affine) -> bool {
    a.slope.to_bits() == b.slope.to_bits() && a.intercept.to_bits() == b.intercept.to_bits()
}

/// The crossing stage of every exact scan: appends to `out`, as
/// `(interval, x)`, every pairwise crossing `x` of two affines of one
/// in-window interval of `cover` that holds at least `k` affines, where
/// `x` falls strictly inside that interval. The candidates are exactly
/// those of dividing every pair on every such interval, found with far
/// fewer divisions.
///
/// `cover` must keep each interval's entries in robot order, as
/// [`first_visit_cover`] and [`all_visit_cover`] do. A *run* is a
/// stretch of consecutive in-window intervals on which one entry of a
/// robot keeps its affine bit for bit. Two steps:
///
/// 1. A whole-side certificate. Sort the runs' distinct intercepts. If
///    every gap exceeds `hi · (max slope − min slope) · (1 + 1e-9)`,
///    every computed crossing has magnitude at least the window edge
///    `hi`, so none falls in any interval. This holds because `f64`
///    subtraction and division round monotonically.
/// 2. Otherwise, divide each pair of runs once per stretch on which
///    both keep their affines, and file the crossing in the one
///    interval of that stretch that holds it, by binary search.
fn interval_crossings(cover: &WindowCover, k: usize, out: &mut Vec<(u32, f64)>) {
    let cuts = cover.cuts();
    // In-window intervals are 0..window: the beyond interval is only
    // evaluated at the window edge and never takes crossings.
    let window = cuts.len() - 1;
    let mut base = Vec::with_capacity(window + 1);
    base.push(0);
    for j in 0..window {
        base.push(base[j] + cover.affines(j).len());
    }
    // Per in-window entry, in cover order: whether its run starts in
    // its interval, and the last interval of its run.
    let mut starts = vec![true; base[window]];
    let mut ends = vec![0u32; base[window]];
    for j in (0..window).rev() {
        let (robots, affines) = (cover.robots(j), cover.affines(j));
        debug_assert!(robots.windows(2).all(|w| w[0] <= w[1]), "entries out of robot order");
        ends[base[j]..base[j + 1]].fill(j as u32);
        if j + 1 == window {
            continue;
        }
        let (later_robots, later_affines) = (cover.robots(j + 1), cover.affines(j + 1));
        let mut q = 0;
        for (p, &robot) in robots.iter().enumerate() {
            while q < later_robots.len() && later_robots[q] < robot {
                q += 1;
            }
            if q < later_robots.len()
                && later_robots[q] == robot
                && same_affine(&affines[p], &later_affines[q])
            {
                ends[base[j] + p] = ends[base[j + 1] + q];
                starts[base[j + 1] + q] = false;
                // Each later entry continues at most one run, so a
                // robot's passes of an all-visit cover pair off in
                // time order.
                q += 1;
            }
        }
    }
    if no_crossing_certified(cover, &base, &starts) {
        return;
    }
    for j in 0..window {
        let affines = cover.affines(j);
        let (starts, ends) = (&starts[base[j]..base[j + 1]], &ends[base[j]..base[j + 1]]);
        for p in (0..affines.len()).filter(|&p| starts[p]) {
            for q in 0..affines.len() {
                // A pair whose runs both start here is divided once,
                // with the later entry as `p`.
                if q == p || (starts[q] && q < p) {
                    continue;
                }
                let (a, b) = if p < q { (p, q) } else { (q, p) };
                let Some(x) = affines[a].crossing(&affines[b]) else {
                    continue;
                };
                let last = ends[p].min(ends[q]) as usize;
                if !(x > cuts[j] && x < cuts[last + 1]) {
                    continue;
                }
                // The first cut at or past x closes the interval that
                // holds it, unless x sits on that cut.
                let above = j + 1 + cuts[j + 1..=last + 1].partition_point(|&c| c < x);
                let t = above - 1;
                if x < cuts[above] && cover.affines(t).len() >= k {
                    out.push((t as u32, x));
                }
            }
        }
    }
}

/// Step 1 of [`interval_crossings`]: whether no pairwise crossing of
/// the in-window affines can fall inside the window. Only run starts
/// are read, which cover every distinct affine.
fn no_crossing_certified(cover: &WindowCover, base: &[usize], starts: &[bool]) -> bool {
    let window = base.len() - 1;
    let hi = cover.cuts()[window];
    let mut intercepts = Vec::new();
    let (mut min_slope, mut max_slope) = (f64::INFINITY, f64::NEG_INFINITY);
    for j in 0..window {
        for (a, &start) in cover.affines(j).iter().zip(&starts[base[j]..base[j + 1]]) {
            if start {
                intercepts.push(a.intercept);
                min_slope = min_slope.min(a.slope);
                max_slope = max_slope.max(a.slope);
            }
        }
    }
    intercepts.sort_unstable_by(f64::total_cmp);
    // Equal intercepts cross at the origin, outside every interval.
    intercepts.dedup();
    let gap = hi * (max_slope - min_slope) * (1.0 + CERTIFICATE_MARGIN);
    intercepts.windows(2).all(|w| w[1] - w[0] > gap)
}

fn check_scan_args(k: usize, xmax: f64) -> Result<()> {
    if k == 0 {
        return Err(Error::domain("exact supremum needs a visit count k >= 1"));
    }
    if !(xmax > 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and > 1, got {xmax:?}")));
    }
    Ok(())
}

/// The exact supremum of `K(x) = T_k(x) / |x|` over
/// `[-xmax, -1] ∪ [1, xmax]`, including the right-hand limits at
/// `±xmax` — the exact replacement for a grid scan over
/// [`faultline_core::coverage::adversarial_targets`].
///
/// # Errors
///
/// Rejects `k == 0`, a window bound `xmax <= 1` or non-finite, and
/// propagates enumeration failures.
pub fn exact_supremum(fleet: &Fleet, k: usize, xmax: f64) -> Result<ExactScan> {
    exact_supremum_geometry(fleet, k, xmax, Geometry::Line)
}

/// Geometry-parametric variant of [`exact_supremum`]: on
/// [`Geometry::HalfLine`] only the positive window `[1, xmax]` exists,
/// so the mirrored negative-side cover is skipped entirely and the
/// scan's critical-point count halves. [`Geometry::Line`] reproduces
/// [`exact_supremum`] bit for bit.
///
/// # Errors
///
/// As [`exact_supremum`].
pub fn exact_supremum_geometry(
    fleet: &Fleet,
    k: usize,
    xmax: f64,
    geometry: Geometry,
) -> Result<ExactScan> {
    Ok(FleetScan::new(fleet.trajectories(), k, xmax, geometry)?.scan())
}

/// A candidate point of one interval of a [`FleetScan`] side: its
/// position and the fleet's `(k-1)`-th and `k`-th smallest visit times
/// there, from the interval's affines. A count that runs out reads
/// `+inf`; the 0-th smallest is `-inf`.
#[derive(Debug, Clone, Copy)]
struct Probe {
    x: f64,
    below: f64,
    kth: f64,
}

impl Probe {
    /// The `k`-th smallest visit time once one more robot, visiting at
    /// `t`, joins: `max(below, min(t, kth))` in the total order, which
    /// is the element `select_nth_unstable_by(k - 1)` picks from the
    /// joint times.
    fn kth_with(&self, t: f64) -> f64 {
        let upper = if t.total_cmp(&self.kth).is_lt() { t } else { self.kth };
        if self.below.total_cmp(&upper).is_gt() {
            self.below
        } else {
            upper
        }
    }
}

/// Evaluates `affines` at `x` into `times` and returns the `(k-1)`-th
/// and `k`-th smallest as a [`Probe`].
fn probe(affines: &[Affine], k: usize, x: f64, times: &mut Vec<f64>) -> Probe {
    times.clear();
    times.extend(affines.iter().map(|a| a.eval(x)));
    let (below, kth) = if times.len() >= k {
        let (smaller, kth, _) = times.select_nth_unstable_by(k - 1, f64::total_cmp);
        (smaller.iter().copied().max_by(f64::total_cmp), *kth)
    } else if times.len() + 1 == k {
        (times.iter().copied().max_by(f64::total_cmp), f64::INFINITY)
    } else {
        (Some(f64::INFINITY), f64::INFINITY)
    };
    Probe { x, below: below.unwrap_or(f64::NEG_INFINITY), kth }
}

/// One side of a [`FleetScan`], in positive-window coordinates: the
/// fleet's first-visit cover and the probes of every interval that
/// holds at least `k - 1` affines.
#[derive(Debug, Clone)]
struct SideTable {
    cover: WindowCover,
    /// Interval `i`'s probes are `probes[offsets[i]..offsets[i + 1]]`:
    /// its lower end, then inside the window its upper end and its
    /// crossings in ascending order. Empty below `k - 1` affines.
    offsets: Vec<usize>,
    probes: Vec<Probe>,
}

impl SideTable {
    fn new(cover: WindowCover, k: usize) -> SideTable {
        // Crossings of intervals one affine short of `k` are filed too:
        // one more robot can lift them to `k`.
        let mut filed = Vec::new();
        interval_crossings(&cover, k - 1, &mut filed);
        filed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut offsets = Vec::with_capacity(cover.interval_count() + 1);
        offsets.push(0);
        let mut probes = Vec::with_capacity(2 * cover.interval_count() + filed.len());
        let mut filed = filed.into_iter().peekable();
        let mut times = Vec::new();
        for i in 0..cover.interval_count() {
            let affines = cover.affines(i);
            if affines.len() + 1 >= k {
                let (lo, hi) = cover.interval_bounds(i);
                probes.push(probe(affines, k, lo, &mut times));
                if !cover.is_beyond(i) {
                    probes.push(probe(affines, k, hi, &mut times));
                    while let Some((_, x)) = filed.next_if(|&(j, _)| j as usize == i) {
                        probes.push(probe(affines, k, x, &mut times));
                    }
                }
            }
            offsets.push(probes.len());
        }
        SideTable { cover, offsets, probes }
    }

    fn probes(&self, i: usize) -> &[Probe] {
        &self.probes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The side's first-visit cover.
    fn cover(&self) -> &WindowCover {
        &self.cover
    }

    /// The candidate positions of interval `i` of [`SideTable::cover`]:
    /// its lower end, then inside the window its upper end and its
    /// crossings in ascending order. Empty when the interval holds
    /// fewer than `k - 1` affines.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    fn candidates(&self, i: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.probes(i).iter().map(|p| p.x)
    }

    /// This side's scan: every interval with at least `k` affines
    /// takes the max of `kth / x` over its probes.
    fn scan(&self, k: usize) -> SideScan {
        let mut side = SideScan::new(Some(&self.cover));
        for i in 0..self.cover.interval_count() {
            if self.cover.affines(i).len() < k {
                side.mark_uncovered(self.cover.interval_bounds(i).0);
                continue;
            }
            let mut best = None;
            for p in self.probes(i) {
                offer(&mut best, p.x, p.kth);
            }
            side.record(best.expect("a covered interval has its endpoint probes"));
        }
        side
    }

    /// The scan of this side's fleet plus one robot whose one-robot
    /// [`first_visit_cover`] over the same window is `robot`, with the
    /// fleet's intervals also split at `splits` (ascending).
    ///
    /// The robot's in-window cuts split this side's intervals. A
    /// segment's ends are waypoint projections, so on every piece the
    /// fleet keeps its interval's affines and the robot keeps the
    /// affine of its own interval that holds the piece. A split point
    /// cuts a piece in two the same way, with no affine changing
    /// across it. A candidate of the fleet's own keeps its probe; only
    /// the cuts, the split points and the robot's crossings with the
    /// fleet's affines are evaluated afresh.
    fn scan_with(
        &self,
        k: usize,
        robot: &WindowCover,
        splits: &[f64],
        times: &mut Vec<f64>,
    ) -> SideScan {
        let cover = &self.cover;
        let (cuts, robot_cuts) = (cover.cuts(), robot.cuts());
        let window = cuts.len() - 1;
        let edge = cuts[window];
        let beyond = match (cover.beyond(), robot.beyond()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let mut side = SideScan {
            best: None,
            uncovered: 0,
            uncovered_x: None,
            interval_sups: Vec::with_capacity(cuts.len() + robot_cuts.len()),
            critical_points: cuts.len(),
        };
        if beyond.is_none() {
            side.mark_uncovered(edge);
        }
        // The robot's interval holding the current piece, and the first
        // split point past the piece's lower end.
        let (mut q, mut s) = (0, 0);
        for i in 0..window {
            let (affines, probes) = (cover.affines(i), self.probes(i));
            // An interval with fewer than `k - 1` affines keeps no
            // probes: all its pieces are uncovered, and its endpoints
            // cost fewer than `k - 1` evaluations.
            let endpoint = |j: usize, times: &mut Vec<f64>| match probes.get(j) {
                Some(&p) => p,
                None => probe(affines, k, cuts[i + j], times),
            };
            let mut lo = endpoint(0, times);
            let mut crossing = 2;
            loop {
                while robot_cuts[q + 1] <= lo.x {
                    q += 1;
                }
                while splits.get(s).is_some_and(|&x| x <= lo.x) {
                    s += 1;
                }
                let next = splits.get(s).map_or(robot_cuts[q + 1], |&x| x.min(robot_cuts[q + 1]));
                let split = next < cuts[i + 1];
                let hi = if split {
                    side.critical_points += 1;
                    probe(affines, k, next, times)
                } else {
                    endpoint(1, times)
                };
                let visit = robot.affines(q).first();
                if affines.len() + usize::from(visit.is_some()) < k {
                    side.mark_uncovered(lo.x);
                } else {
                    let value = |p: &Probe| visit.map_or(p.kth, |a| p.kth_with(a.eval(p.x)));
                    let mut best = None;
                    offer(&mut best, lo.x, value(&lo));
                    offer(&mut best, hi.x, value(&hi));
                    // The fleet's crossings inside the piece; one on a
                    // robot cut falls outside both open pieces.
                    while crossing < probes.len() && probes[crossing].x <= lo.x {
                        crossing += 1;
                    }
                    while crossing < probes.len() && probes[crossing].x < hi.x {
                        offer(&mut best, probes[crossing].x, value(&probes[crossing]));
                        crossing += 1;
                    }
                    // The robot's crossings with the fleet's affines.
                    // `Affine::crossing` is symmetric bit for bit away
                    // from 0, so robot order does not matter.
                    if let Some(a) = visit {
                        for b in affines {
                            let Some(x) = a.crossing(b) else { continue };
                            if x > lo.x && x < hi.x {
                                let kth = probe(affines, k, x, times).kth_with(a.eval(x));
                                offer(&mut best, x, kth);
                            }
                        }
                    }
                    side.record(best.expect("a covered piece has its endpoint candidates"));
                }
                if !split {
                    break;
                }
                lo = hi;
            }
        }
        if beyond.is_some() {
            // The beyond interval is evaluated at the window edge only.
            let (affines, probes) = match cover.beyond() {
                Some(_) => (cover.affines(window), self.probes(window)),
                None => (&[][..], &[][..]),
            };
            let visit =
                robot.beyond().and_then(|_| robot.affines(robot.interval_count() - 1).first());
            if affines.len() + usize::from(visit.is_some()) < k {
                side.mark_uncovered(edge);
            } else {
                let p = probes.first().copied().unwrap_or_else(|| probe(affines, k, edge, times));
                let value = visit.map_or(p.kth, |a| p.kth_with(a.eval(edge)));
                side.record((value / edge, edge));
            }
        }
        side
    }
}

/// The worst-case scan of a fleet, built once and then read either as
/// is or with one more robot substituted in: the engine behind
/// [`exact_supremum`] and the optimizer's leave-one-out probes.
///
/// It holds the fleet's first-visit covers, positive side and (on the
/// line) mirrored negative side. At every candidate point it also
/// holds the fleet's `(k-1)`-th and `k`-th smallest visit times. The
/// candidate points are each interval's endpoints, as one-sided
/// limits, and each pairwise crossing inside an interval that holds at
/// least `k - 1` affines.
#[derive(Debug, Clone)]
pub struct FleetScan {
    k: usize,
    xmax: f64,
    pos: SideTable,
    neg: Option<SideTable>,
}

impl FleetScan {
    /// Builds the scan of `trajectories` with visit count `k` over the
    /// window `xmax`; only [`Geometry::Line`] has a negative side.
    ///
    /// # Errors
    ///
    /// Rejects `k == 0`, a window bound `xmax <= 1` or non-finite, and
    /// propagates enumeration failures (an empty fleet among them).
    pub(crate) fn new(
        trajectories: &[PiecewiseTrajectory],
        k: usize,
        xmax: f64,
        geometry: Geometry,
    ) -> Result<FleetScan> {
        check_scan_args(k, xmax)?;
        let pos = SideTable::new(first_visit_cover(trajectories, 1.0, xmax)?, k);
        let neg = if geometry.has_negative_side() {
            let mirror = mirrored(trajectories)?;
            Some(SideTable::new(first_visit_cover(&mirror, 1.0, xmax)?, k))
        } else {
            None
        };
        Ok(FleetScan { k, xmax, pos, neg })
    }

    /// The scanned sides: the positive window, then on the line the
    /// mirrored negative one.
    fn sides(&self) -> impl Iterator<Item = &SideTable> {
        std::iter::once(&self.pos).chain(&self.neg)
    }

    /// The fleet's own scan: what [`exact_supremum_geometry`] returns.
    #[must_use]
    pub(crate) fn scan(&self) -> ExactScan {
        // The half-line has no negative side: an empty accumulator
        // contributes no candidates, no uncovered intervals, and no
        // critical points to the merge.
        let neg = self.neg.as_ref().map_or_else(|| SideScan::new(None), |s| s.scan(self.k));
        merge_sides(self.pos.scan(self.k), neg)
    }

    /// The scan of the fleet plus `robot`, bit for bit what
    /// [`exact_supremum_geometry`] returns for the joint fleet, in any
    /// robot order.
    ///
    /// `splits` lets the joint fleet's other robots run longer than
    /// this fleet's trajectories: per side (the positive window, then
    /// the mirrored negative one), the ascending positions where the
    /// joint fleet has cuts this fleet lacks, with every robot's first
    /// visit the same on both sides of each. A robot that has made all
    /// its first visits of both windows adds exactly such a cut where
    /// it stands at the longer horizon. Positions outside the window
    /// are ignored, and so is the negative side's on the half-line.
    ///
    /// # Errors
    ///
    /// Propagates the robot's enumeration and mirroring failures.
    pub(crate) fn scan_with(
        &self,
        robot: &PiecewiseTrajectory,
        splits: [&[f64]; 2],
    ) -> Result<ExactScan> {
        debug_assert!(splits.iter().all(|s| s.is_sorted()), "split points must ascend");
        let robot = std::slice::from_ref(robot);
        let mut times = Vec::new();
        let cover = first_visit_cover(robot, 1.0, self.xmax)?;
        let pos = self.pos.scan_with(self.k, &cover, splits[0], &mut times);
        let neg = match &self.neg {
            Some(side) => {
                let cover = first_visit_cover(&mirrored(robot)?, 1.0, self.xmax)?;
                side.scan_with(self.k, &cover, splits[1], &mut times)
            }
            None => SideScan::new(None),
        };
        Ok(merge_sides(pos, neg))
    }
}

/// One affine piece of `T_k`, in positive-window coordinates: on
/// `[lo, hi]` no two of the interval's affines cross, so the k-th
/// visitor and its leg are fixed. `T_k` there is `visit` (one-sided
/// limits at the ends), and the visitor has made `turns` reversals
/// before it arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Piece {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) visit: Affine,
    pub(crate) turns: usize,
}

/// Walks the affine pieces of `T_k` over both sides of the window
/// `1 <= |x| <= xmax`, cut at every candidate of a [`FleetScan`], and
/// returns the number of intervals held by fewer than `k` visits.
///
/// A `closed` window ends at `±xmax`, for fleets that never pass it.
/// Otherwise the right-hand limit at `±xmax` is one more piece,
/// `[xmax, xmax]`, as [`exact_supremum`] scores it, and a side no robot
/// passes counts as uncovered there. Among visitors tied inside a
/// piece the lower robot index comes first.
pub(crate) fn kth_pieces(
    trajectories: &[PiecewiseTrajectory],
    k: usize,
    xmax: f64,
    closed: bool,
    mut each: impl FnMut(Piece),
) -> Result<usize> {
    let scan = FleetScan::new(trajectories, k, xmax, Geometry::Line)?;
    let mut uncovered = 0;
    let (mut xs, mut order) = (Vec::new(), Vec::new());
    for side in scan.sides() {
        let cover = side.cover();
        if !closed && cover.beyond().is_none() {
            uncovered += 1;
        }
        for i in 0..cover.interval_count() {
            let beyond = cover.is_beyond(i);
            if beyond && closed {
                continue;
            }
            let (affines, robots) = (cover.affines(i), cover.robots(i));
            if affines.len() < k {
                uncovered += 1;
                continue;
            }
            xs.clear();
            xs.extend(side.candidates(i));
            xs.sort_unstable_by(f64::total_cmp);
            xs.dedup();
            // The edge piece is the beyond interval read at `xmax`.
            if beyond {
                xs.push(xs[0]);
            }
            for w in xs.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                // Turns are counted strictly inside the legs: at the
                // piece's middle, or the beyond interval's, which the
                // edge piece's legs span.
                let (a, b) = if beyond { cover.interval_bounds(i) } else { (lo, hi) };
                let mid = 0.5 * (a + b);
                // Visitors are ranked there too, except at the edge,
                // where they are ranked just past `xmax`: by value at
                // `xmax`, then by slope.
                let at = if beyond { lo } else { mid };
                order.clear();
                order.extend(0..affines.len());
                let (_, &mut p, _) = order.select_nth_unstable_by(k - 1, |&p: &usize, &q| {
                    let (a, b) = (&affines[p], &affines[q]);
                    a.eval(at)
                        .total_cmp(&b.eval(at))
                        .then(a.slope.total_cmp(&b.slope))
                        .then(p.cmp(&q))
                });
                let visit = affines[p];
                let robot = &trajectories[robots[p] as usize];
                let turns = TurnCost::free().turns_before(robot, visit.eval(mid));
                each(Piece { lo, hi, visit, turns });
            }
        }
    }
    Ok(uncovered)
}

/// The supremum of `(T_k(x) + c · turns(x)) / |x|` over the pieces of
/// [`kth_pieces`], with `c` the model's cost per reversal: each piece
/// is monotone in `x`, so its ends decide. Infinite when any interval
/// is uncovered.
pub(crate) fn kth_cost_supremum(
    trajectories: &[PiecewiseTrajectory],
    k: usize,
    xmax: f64,
    model: TurnCost,
    closed: bool,
) -> Result<f64> {
    let mut best = 0.0f64;
    let uncovered = kth_pieces(trajectories, k, xmax, closed, |piece| {
        let cost = model.cost_per_turn() * piece.turns as f64;
        for x in [piece.lo, piece.hi] {
            best = best.max((piece.visit.eval(x) + cost) / x);
        }
    })?;
    Ok(if uncovered > 0 { f64::INFINITY } else { best })
}

/// An [`ExactScan`] paired with a certified enclosure of its
/// supremum, produced by [`exact_supremum_enclosed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclosedScan {
    /// The plain critical-point scan, bit-identical to what
    /// [`exact_supremum`] returns for the same inputs.
    pub scan: ExactScan,
    /// Outward-rounded interval guaranteed to contain both the true
    /// (real-arithmetic) supremum and the `f64` scan value.
    pub enclosure: Interval,
}

/// The k-th smallest value (1-based) under `f64::total_cmp`: bit for
/// bit what sorting would put at index `k - 1`, in linear time.
fn kth_smallest(values: &mut [f64], k: usize) -> f64 {
    *values.select_nth_unstable_by(k - 1, f64::total_cmp).1
}

/// The k-th order statistic of the per-affine visit-time enclosures
/// at `x`. Order statistics are monotone under pointwise ordering, so
/// the k-th smallest lower bound and the k-th smallest upper bound
/// bracket both the k-th smallest `f64` evaluation (what the scan
/// sorts) and the k-th smallest real value.
fn kth_time_enclosure(
    affines: &[Affine],
    k: usize,
    x: f64,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    los.clear();
    his.clear();
    for a in affines {
        let t = a.enclosure_at(x)?;
        los.push(t.lo());
        his.push(t.hi());
    }
    Interval::new(kth_smallest(los, k), kth_smallest(his, k))
}

/// Enclosure of `T_k(x) / x` at a point candidate, mirroring the scan
/// engine's operation order (sort times, then one division) so the
/// result contains the engine's `f64` evaluation at the same `x`.
fn kth_ratio_enclosure_at(
    affines: &[Affine],
    k: usize,
    x: f64,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    kth_time_enclosure(affines, k, x, los, his)?.div(Interval::point(x)?)
}

/// Enclosure of `{ T_k(x) / x : x in xs }` over a zero-free range —
/// the k-th order statistic of the per-affine ratio range enclosures.
fn kth_ratio_enclosure_over(
    affines: &[Affine],
    k: usize,
    xs: Interval,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    los.clear();
    his.clear();
    for a in affines {
        let g = a.ratio_enclosure_over(xs)?;
        los.push(g.lo());
        his.push(g.hi());
    }
    Interval::new(kth_smallest(los, k), kth_smallest(his, k))
}

/// Appends to `ranges` the certified crossing ranges of `affines` on
/// the open interval `(lo, hi)`: for every pair that is not parallel,
/// an enclosure of its true crossing, clipped to `[lo, hi]` where the
/// two meet. A pair whose crossing enclosure is not positive takes the
/// whole interval, so every non-parallel pair counts. A range
/// enclosure over these covers each real breakpoint, even where the
/// `f64` crossing candidate sits an ulp away from it.
///
/// # Errors
///
/// Propagates interval construction failures.
fn crossing_ranges(affines: &[Affine], lo: f64, hi: f64, ranges: &mut Vec<Interval>) -> Result<()> {
    for (i, a) in affines.iter().enumerate() {
        for b in &affines[i + 1..] {
            if a.crossing(b).is_none() {
                continue;
            }
            let xs = match a.crossing_enclosure(b) {
                Some(xs) if xs.is_positive() => xs,
                // Degenerate slope-difference enclosure: the whole
                // interval is always a sound fallback.
                _ => Interval::new(lo, hi)?,
            };
            if xs.hi() > lo && xs.lo() < hi {
                ranges.push(Interval::new(xs.lo().max(lo), xs.hi().min(hi))?);
            }
        }
    }
    Ok(())
}

/// One covered side's supremum enclosure: `lo` comes only from the
/// scan's own point candidates (so it never exceeds the `f64` scan
/// value), `hi` additionally absorbs range enclosures over the
/// [`crossing_ranges`] (so it covers the true supremum). Every interval
/// of a covered side holds at least `k` affines.
fn scan_side_enclosure(side: &SideTable, k: usize) -> Result<(f64, f64)> {
    let cover = side.cover();
    let mut lo_acc = f64::NEG_INFINITY;
    let mut hi_acc = f64::NEG_INFINITY;
    let mut ranges: Vec<Interval> = Vec::new();
    let mut los: Vec<f64> = Vec::new();
    let mut his: Vec<f64> = Vec::new();
    for i in 0..cover.interval_count() {
        let affines = cover.affines(i);
        for x in side.candidates(i) {
            let enc = kth_ratio_enclosure_at(affines, k, x, &mut los, &mut his)?;
            lo_acc = lo_acc.max(enc.lo());
            hi_acc = hi_acc.max(enc.hi());
        }
        if cover.is_beyond(i) {
            continue;
        }
        // The k-th order statistic is piecewise `s + i/x` with
        // breakpoints only at pairwise crossings, so the interval
        // supremum is attained at an endpoint or a true crossing.
        // Endpoints are exact; each true crossing lies inside its
        // certified range, whose enclosure widens `hi` only.
        let (lo, hi) = cover.interval_bounds(i);
        ranges.clear();
        crossing_ranges(affines, lo, hi, &mut ranges)?;
        for &xs in &ranges {
            let range = kth_ratio_enclosure_over(affines, k, xs, &mut los, &mut his)?;
            hi_acc = hi_acc.max(range.hi());
        }
    }
    Ok((lo_acc, hi_acc))
}

/// The [`exact_supremum`] scan paired with an outward-rounded
/// interval `[lo, hi]` certified to contain the true supremum of
/// `K(x) = T_k(x) / |x|` over the window — and, because every lower
/// bound comes from a point candidate the scan itself evaluates, the
/// `f64` scan value satisfies `lo <= scan.ratio <= hi` as well.
///
/// # Errors
///
/// Beyond [`exact_supremum`]'s validation, errors when the scan is
/// uncovered: an unbounded supremum has no finite enclosure.
pub fn exact_supremum_enclosed(fleet: &Fleet, k: usize, xmax: f64) -> Result<EnclosedScan> {
    let fleet_scan = FleetScan::new(fleet.trajectories(), k, xmax, Geometry::Line)?;
    let scan = fleet_scan.scan();
    if scan.uncovered > 0 || !scan.ratio.is_finite() {
        return Err(Error::domain("cannot enclose an uncovered supremum: the ratio is unbounded"));
    }
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for side in fleet_scan.sides() {
        let (side_lo, side_hi) = scan_side_enclosure(side, k)?;
        (lo, hi) = (lo.max(side_lo), hi.max(side_hi));
    }
    let enclosure = Interval::new(lo, hi)?;
    if !enclosure.contains(scan.ratio) {
        return Err(Error::numerical(format!(
            "supremum enclosure [{}, {}] lost the scan value {}",
            enclosure.lo(),
            enclosure.hi(),
            scan.ratio
        )));
    }
    Ok(EnclosedScan { scan, enclosure })
}

/// Evaluates the p-faulty expected cost at position `x` from the
/// interval's visit affines: in-horizon visits in time order carry
/// geometric detection mass, the rest truncates at the horizon
/// (exactly [`faultline_sim::expected_outcome`]). Returns `None` when
/// no visit lands within the horizon — the uncovered case.
fn expected_value_at(
    affines: &[Affine],
    x: f64,
    p: f64,
    horizon: f64,
    times: &mut Vec<f64>,
) -> Option<f64> {
    times.clear();
    times.extend(affines.iter().map(|a| a.eval(x)).filter(|&t| t <= horizon));
    if times.is_empty() {
        return None;
    }
    times.sort_by(f64::total_cmp);
    let mut surviving = 1.0;
    let mut expected = 0.0;
    for &t in times.iter() {
        expected += t * p * surviving;
        surviving *= 1.0 - p;
    }
    Some(expected + horizon * surviving)
}

/// Scans one side of the expected-cost supremum over an all-visit
/// cover: candidates are the interval endpoints, the pairwise crossings
/// of the visits, and the horizon crossings.
fn scan_side_expected(cover: &WindowCover, p: f64, horizon: f64) -> SideScan {
    let mut filed = Vec::new();
    interval_crossings(cover, 1, &mut filed);
    filed.sort_unstable_by_key(|&(i, _)| i);
    let mut filed = filed.into_iter().peekable();
    let mut side = SideScan::new(Some(cover));
    let mut candidates: Vec<f64> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for i in 0..cover.interval_count() {
        let (lo, hi) = cover.interval_bounds(i);
        let affines = cover.affines(i);
        if affines.is_empty() {
            side.mark_uncovered(lo);
            continue;
        }
        candidates.clear();
        candidates.push(lo);
        if !cover.is_beyond(i) {
            candidates.push(hi);
            while let Some((_, x)) = filed.next_if(|&(j, _)| j as usize == i) {
                candidates.push(x);
            }
            for a in affines {
                if let Some(x) = a.position_of_time(horizon) {
                    if x > lo && x < hi {
                        candidates.push(x);
                    }
                }
            }
        }
        match best_over_candidates(&candidates, |x| {
            expected_value_at(affines, x, p, horizon, &mut times)
        }) {
            Some(best) => side.record(best),
            None => side.mark_uncovered(lo),
        }
    }
    side
}

/// The exact supremum of the p-faulty expected competitive ratio over
/// `[-xmax, -1] ∪ [1, xmax]`, with undetected mass truncated at the
/// fleet horizon — the grid-free counterpart of scanning
/// [`faultline_sim::expected_outcome`] over adversarial targets.
///
/// Unlike the worst-case scan, uncovered intervals leave the ratio
/// finite (the expectation truncates at the horizon); callers treat
/// `uncovered > 0` as an incomplete measurement and deepen the fleet.
///
/// # Errors
///
/// Rejects probabilities outside `[0, 1]` and invalid windows.
pub fn exact_expected_supremum(fleet: &Fleet, p: f64, xmax: f64) -> Result<ExactScan> {
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::domain(format!("detection probability must be in [0, 1], got {p:?}")));
    }
    if !(xmax > 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and > 1, got {xmax:?}")));
    }
    let horizon = fleet.horizon();
    let pos = all_visit_cover(fleet.trajectories(), 1.0, xmax)?;
    let neg = all_visit_cover(&mirrored(fleet.trajectories())?, 1.0, xmax)?;
    Ok(merge_expected(scan_side_expected(&pos, p, horizon), scan_side_expected(&neg, p, horizon)))
}

/// Merges the two sides of an expected-cost scan. Expected cost
/// truncates at the horizon, so even an incomplete measurement reports
/// the finite supremum over the covered intervals (0 when nothing is
/// covered), matching the historical grid semantics.
fn merge_expected(pos: SideScan, neg: SideScan) -> ExactScan {
    let (pos_best, neg_best) = (pos.best, neg.best);
    let merged = merge_sides(pos, neg);
    if merged.uncovered > 0 {
        let (ratio, argmax) = best_of_sides(pos_best, neg_best);
        return ExactScan { ratio, argmax, ..merged };
    }
    merged
}

#[cfg(test)]
mod crossing_stage;

#[cfg(test)]
mod moved_horizon;

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::Plan;
    use faultline_core::{Algorithm, Params};

    fn paper_fleet(n: usize, f: usize, xmax: f64) -> Fleet {
        let params = Params::new(n, f).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
        Fleet::from_plans(&alg.plans(), horizon).unwrap()
    }

    #[test]
    fn cost_walk_at_zero_cost_matches_the_scan_on_table_1_fleets() {
        for &(n, f) in crate::table1::TABLE1_PAIRS {
            let fleet = paper_fleet(n, f, 25.0);
            let scan = exact_supremum(&fleet, f + 1, 25.0).unwrap();
            let walk =
                kth_cost_supremum(fleet.trajectories(), f + 1, 25.0, TurnCost::free(), false)
                    .unwrap();
            assert!(
                (walk - scan.ratio).abs() <= 1e-12 * scan.ratio,
                "(n = {n}, f = {f}): walk {walk} vs scan {}",
                scan.ratio
            );
        }
    }

    /// The turn cost at `x` on its own: the `k`-th distinct visitor's
    /// arrival, ties to the lower robot index, plus `c` per reversal it
    /// made on the way.
    fn pointwise_cost(model: TurnCost, fleet: &[PiecewiseTrajectory], x: f64, k: usize) -> f64 {
        let mut arrivals: Vec<(usize, f64)> = fleet
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.first_visit(x).map(|time| (i, time)))
            .collect();
        arrivals.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (robot, time) = arrivals[k - 1];
        time + model.cost_per_turn() * model.turns_before(&fleet[robot], time) as f64
    }

    /// Asserts that the walk's cost supremum dominates the pointwise
    /// turn-cost ratio at every target.
    fn assert_dominates(fleet: &Fleet, targets: &[f64], xmax: f64, closed: bool, label: &str) {
        for c in [0.0, 0.5, 2.0, 8.0] {
            let model = TurnCost::new(c).unwrap();
            let walk = kth_cost_supremum(fleet.trajectories(), 2, xmax, model, closed).unwrap();
            assert!(walk.is_finite(), "{label}, c = {c}: uncovered");
            for &x in targets {
                let pointwise = pointwise_cost(model, fleet.trajectories(), x, 2) / x.abs();
                assert!(
                    walk >= pointwise * (1.0 - 1e-12),
                    "{label}, c = {c}: target {x} costs {pointwise} above the walk's {walk}"
                );
            }
        }
    }

    #[test]
    fn cost_walk_dominates_pointwise_detection_costs() {
        use crate::supremum::fleet_targets;
        use faultline_core::BoundedAlgorithm;
        use faultline_strategies::{FixedBetaStrategy, Strategy};

        // E2: the proportional schedule at beta*, right-hand limits at
        // the window edge included.
        let params = Params::new(3, 1).unwrap();
        let strategy =
            FixedBetaStrategy::new(faultline_core::ratio::optimal_beta(params).unwrap()).unwrap();
        let horizon = strategy.horizon_hint(params, 25.0 * 1.001);
        let fleet = Fleet::from_plans(&strategy.plans(params).unwrap(), horizon).unwrap();
        let targets = fleet_targets(&fleet, 25.0, 48).unwrap();
        assert_dominates(&fleet, &targets, 25.0, false, "E2");
        // E1: the clamped fleets over the closed window.
        for bound in [1.5, 2.0, 4.0, 16.0] {
            let bounded = BoundedAlgorithm::design(params, bound).unwrap();
            let plans = bounded.plans().unwrap();
            let fleet = Fleet::from_plans(&plans, bounded.required_horizon()).unwrap();
            let targets: Vec<f64> = fleet_targets(&fleet, bound, 48)
                .unwrap()
                .into_iter()
                .filter(|x| x.abs() <= bound)
                .collect();
            assert_dominates(&fleet, &targets, bound, true, &format!("E1, D = {bound}"));
        }
    }

    #[test]
    fn validates_inputs() {
        let fleet = paper_fleet(3, 1, 10.0);
        assert!(exact_supremum(&fleet, 0, 10.0).is_err());
        assert!(exact_supremum(&fleet, 2, 1.0).is_err());
        assert!(exact_supremum(&fleet, 2, f64::NAN).is_err());
        assert!(exact_expected_supremum(&fleet, 1.5, 10.0).is_err());
        assert!(exact_expected_supremum(&fleet, f64::NAN, 10.0).is_err());
        assert!(exact_expected_supremum(&fleet, 0.5, 0.5).is_err());
    }

    #[test]
    fn exact_supremum_attains_theorem_1_exactly() {
        // The proportional schedule equalizes every turning-point
        // right-hand limit at the Theorem 1 ratio, and the exact
        // engine evaluates those limits directly — agreement is at
        // float precision, far below any grid tolerance.
        for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 2), (5, 3)] {
            let params = Params::new(n, f).unwrap();
            let analytic = faultline_core::ratio::cr_upper(params);
            let fleet = paper_fleet(n, f, 25.0);
            let scan = exact_supremum(&fleet, f + 1, 25.0).unwrap();
            assert_eq!(scan.uncovered, 0, "(n = {n}, f = {f})");
            assert!(
                (scan.ratio - analytic).abs() <= 1e-9 * analytic,
                "(n = {n}, f = {f}): exact {} vs Theorem 1 {analytic}",
                scan.ratio
            );
            assert!(scan.critical_points > 4);
            assert!(scan.pressure > 0.0 && scan.pressure <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn line_geometry_reproduces_exact_supremum_bitwise() {
        let fleet = paper_fleet(4, 2, 18.0);
        let two_sided = exact_supremum(&fleet, 3, 18.0).unwrap();
        let explicit = exact_supremum_geometry(&fleet, 3, 18.0, Geometry::Line).unwrap();
        assert_eq!(two_sided, explicit);
    }

    #[test]
    fn half_line_scan_is_one_sided_and_dominated_by_the_line() {
        let fleet = paper_fleet(3, 1, 15.0);
        let line = exact_supremum_geometry(&fleet, 2, 15.0, Geometry::Line).unwrap();
        let half = exact_supremum_geometry(&fleet, 2, 15.0, Geometry::HalfLine).unwrap();
        assert_eq!(half.uncovered, 0);
        assert!(half.argmax > 0.0, "half-line argmax stays on the positive side");
        // Dropping the negative side can only shrink the supremum and
        // exactly halves the enumerated critical points for a
        // symmetric-cut fleet.
        assert!(half.ratio <= line.ratio + 1e-12 * line.ratio);
        assert!(half.critical_points < line.critical_points);
        // The one-sided exact scan still dominates a dense one-sided grid.
        for i in 0..2000 {
            let x = 1.0 + 14.0 * i as f64 / 1999.0;
            if let Some(r) = fleet.visit_time(x, 2).map(|t| t / x.abs()) {
                assert!(
                    half.ratio >= r - 1e-12 * r,
                    "half-line grid point {x} beats the exact supremum: {r} > {}",
                    half.ratio
                );
            }
        }
    }

    #[test]
    fn half_line_scan_handles_non_unit_speeds() {
        use faultline_core::{PiecewiseTrajectory, SpaceTime};
        // A speed-2 sweeper and a half-speed sweeper, both positive-only:
        // the fast robot visits x at t = x/2, the slow one at t = 2x, so
        // T_2(x)/x = 2 everywhere on the half-line.
        let fast = PiecewiseTrajectory::with_speed_limit(
            vec![SpaceTime::new(0.0, 0.0), SpaceTime::new(40.0, 20.0)],
            2.0,
        )
        .unwrap();
        let slow =
            PiecewiseTrajectory::new(vec![SpaceTime::new(0.0, 0.0), SpaceTime::new(20.0, 40.0)])
                .unwrap();
        let fleet = Fleet::new(vec![fast, slow]).unwrap();
        let half = exact_supremum_geometry(&fleet, 2, 10.0, Geometry::HalfLine).unwrap();
        assert_eq!(half.uncovered, 0);
        assert!((half.ratio - 2.0).abs() < 1e-12, "got {}", half.ratio);
        // The same fleet never covers the negative side: the full-line
        // scan reports it uncovered instead of silently skipping it.
        let line = exact_supremum_geometry(&fleet, 2, 10.0, Geometry::Line).unwrap();
        assert!(line.uncovered > 0);
        assert!(line.ratio.is_infinite());
    }

    #[test]
    fn exact_supremum_dominates_dense_grids() {
        let fleet = paper_fleet(3, 2, 20.0);
        let scan = exact_supremum(&fleet, 3, 20.0).unwrap();
        assert_eq!(scan.uncovered, 0);
        for i in 0..2000 {
            let x = 1.0 + 19.0 * i as f64 / 1999.0;
            for sx in [x, -x] {
                if let Some(r) = fleet.visit_time(sx, 3).map(|t| t / sx.abs()) {
                    assert!(
                        scan.ratio >= r - 1e-12 * r,
                        "grid point {sx} beats the exact supremum: {r} > {}",
                        scan.ratio
                    );
                }
            }
        }
    }

    #[test]
    fn two_ray_fleet_measures_exactly_one() {
        let plans = [Plan::ray(true), Plan::ray(false)];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert_eq!(scan.ratio, 1.0);
        assert_eq!(scan.uncovered, 0);
        assert_eq!(scan.argmax, 1.0, "ties resolve to the positive point nearest the origin");
        // K = 1 on every interval: the plateau has full pressure.
        assert!((scan.pressure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_interval_is_reported_with_its_position() {
        // One ray going right: the negative side is never covered.
        let plans = [Plan::ray(true)];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert!(scan.ratio.is_infinite());
        assert!(scan.uncovered > 0);
        assert_eq!(scan.argmax, -1.0, "the uncovered window edge nearest the origin");
        assert_eq!(scan.pressure, 1.0);
    }

    #[test]
    fn truncated_window_counts_the_unprobed_edge_as_uncovered() {
        // A fleet whose excursions stop exactly at the window edge
        // leaves the right-hand limit at xmax unprobed.
        let plans = [Plan::ray(true), Plan::ray(false)];
        let fleet = Fleet::from_plans(&plans, 30.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert!(scan.ratio.is_infinite());
        assert_eq!(scan.uncovered, 2, "both window edges unprobed");
    }

    #[test]
    fn enclosed_supremum_brackets_the_scan_tightly_on_table_1_fleets() {
        for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)] {
            let fleet = paper_fleet(n, f, 25.0);
            let plain = exact_supremum(&fleet, f + 1, 25.0).unwrap();
            let enclosed = exact_supremum_enclosed(&fleet, f + 1, 25.0).unwrap();
            assert_eq!(enclosed.scan, plain, "(n = {n}, f = {f}): scans must be bit-identical");
            assert!(
                enclosed.enclosure.contains(plain.ratio),
                "(n = {n}, f = {f}): [{}, {}] misses {}",
                enclosed.enclosure.lo(),
                enclosed.enclosure.hi(),
                plain.ratio
            );
            assert!(
                (enclosed.enclosure.hi() - enclosed.enclosure.lo()) <= 1e-9 * plain.ratio,
                "(n = {n}, f = {f}): enclosure width {} is not tight",
                (enclosed.enclosure.hi() - enclosed.enclosure.lo())
            );
        }
    }

    #[test]
    fn enclosed_supremum_rejects_uncovered_scans() {
        let plans = [Plan::ray(true)];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        assert!(exact_supremum_enclosed(&fleet, 1, 30.0).is_err());
    }

    #[test]
    fn a_crossing_supremum_is_found_and_enclosed() {
        use faultline_core::SpaceTime;
        // A dashes to 1 at speed 3 and crawls outward at speed 1/2; B
        // leaves the origin at t = 1. T_1 switches from A to B where
        // they cross, at x = 8/3, and K peaks there at 11/8; C and D
        // mirror them. The scan and the enclosure both need the
        // crossing candidate to reach the supremum.
        let a = PiecewiseTrajectory::with_speed_limit(
            vec![
                SpaceTime::new(0.0, 0.0),
                SpaceTime::new(1.0, 1.0 / 3.0),
                SpaceTime::new(4.0, 1.0 / 3.0 + 6.0),
                SpaceTime::new(-4.0, 1.0 / 3.0 + 14.0),
            ],
            3.0,
        )
        .unwrap();
        let b = PiecewiseTrajectory::new(vec![
            SpaceTime::new(0.0, 0.0),
            SpaceTime::new(0.0, 1.0),
            SpaceTime::new(5.0, 6.0),
            SpaceTime::new(-5.0, 16.0),
        ])
        .unwrap();
        let mirror = mirrored(&[a.clone(), b.clone()]).unwrap();
        let fleet = Fleet::new(vec![a, b, mirror[0].clone(), mirror[1].clone()]).unwrap();
        let scan = exact_supremum(&fleet, 1, 3.5).unwrap();
        assert!((scan.argmax - 8.0 / 3.0).abs() < 1e-12, "{}", scan.argmax);
        assert!((scan.ratio - 11.0 / 8.0).abs() < 1e-12, "{}", scan.ratio);
        let enclosed = exact_supremum_enclosed(&fleet, 1, 3.5).unwrap();
        assert_eq!(enclosed.scan, scan);
        assert!(
            (enclosed.enclosure.hi() - enclosed.enclosure.lo()) <= 1e-9 * scan.ratio,
            "{:?}",
            enclosed.enclosure
        );
    }

    #[test]
    fn expected_supremum_at_p_one_matches_the_worst_case_with_f_zero() {
        let fleet = paper_fleet(3, 1, 15.0);
        let expected = exact_expected_supremum(&fleet, 1.0, 15.0).unwrap();
        let worst = exact_supremum(&fleet, 1, 15.0).unwrap();
        assert_eq!(expected.uncovered, 0);
        assert!(
            (expected.ratio - worst.ratio).abs() <= 1e-9 * worst.ratio,
            "p = 1 expectation {} vs first-visit worst case {}",
            expected.ratio,
            worst.ratio
        );
    }

    #[test]
    fn expected_supremum_is_monotone_in_p() {
        let fleet = paper_fleet(3, 1, 12.0);
        let mut prev = f64::INFINITY;
        for p in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let scan = exact_expected_supremum(&fleet, p, 12.0).unwrap();
            assert_eq!(scan.uncovered, 0, "p = {p}");
            assert!(
                scan.ratio <= prev + 1e-9,
                "expected supremum must not increase in p: E({p}) = {} > {prev}",
                scan.ratio
            );
            prev = scan.ratio;
        }
    }
}
