//! Exact critical-point enumeration over a positive target window.
//!
//! Lemma 3 says `K(x) = T_(f+1)(x) / |x|` is piecewise smooth with
//! discontinuities only at turning-point images. This module makes that
//! structure computable: project every waypoint of every materialized
//! trajectory onto the x-axis, and between two consecutive projections
//! ("cuts") each robot's visit times are *affine* functions of the
//! target position — a segment's x-span has waypoint projections as
//! endpoints, so over an open inter-cut interval the segment either
//! covers the whole interval or misses it entirely. `T_k(x)` is then a
//! k-th order statistic of affines, and its supremum over the interval
//! is attained at the interval endpoints or at pairwise crossings — a
//! finite, exact candidate set that replaces dense grid scans.
//!
//! The window `[lo, hi]` is one-sided (positive positions); callers
//! handle the negative half-line by [`mirrored`] trajectories. Beyond
//! `hi`, one extra interval `(hi, beyond)` is tracked, where `beyond`
//! is the smallest waypoint projection strictly past `hi`: evaluating
//! its affines *at* `hi` yields the exact right-hand limit of the visit
//! times at the window edge — the quantity the historical grid scan
//! approximated with `xmax * (1 + eps)` probes.

use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::spacetime::SpaceTime;
use crate::trajectory::PiecewiseTrajectory;

/// A visit-time function `t(x) = slope * x + intercept`, valid for
/// target positions `x` inside one open inter-cut interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// `dt/dx` along the covering segment; `|slope| >= 1` for moving
    /// unit-speed-bounded segments.
    pub slope: f64,
    /// Visit time extrapolated to `x = 0`.
    pub intercept: f64,
}

impl Affine {
    /// The visit time at position `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// The position where `self` and `other` predict the same visit
    /// time, or `None` for parallel lines.
    #[must_use]
    pub fn crossing(&self, other: &Affine) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds == 0.0 {
            return None;
        }
        Some((other.intercept - self.intercept) / ds)
    }

    /// The position where the visit time reaches `t`, or `None` for a
    /// constant (zero-slope) function.
    #[must_use]
    pub fn position_of_time(&self, t: f64) -> Option<f64> {
        if self.slope == 0.0 {
            return None;
        }
        Some((t - self.intercept) / self.slope)
    }

    /// Outward-rounded enclosure of the visit time at the exact point
    /// `x`, mirroring [`Affine::eval`]'s rounding order (`mul` then
    /// `add`): contains both the real-arithmetic value and the `f64`
    /// evaluation at the same `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for non-finite inputs.
    pub fn enclosure_at(&self, x: f64) -> Result<Interval> {
        Ok(Interval::around(self.slope * x)?.add_scalar(self.intercept))
    }

    /// Outward-rounded enclosure of `eval(x) / x` at the exact point
    /// `x` (see [`Interval::affine_ratio`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `x == 0` or non-finite inputs.
    pub fn ratio_enclosure(&self, x: f64) -> Result<Interval> {
        Interval::affine_ratio(self.slope, self.intercept, x)
    }

    /// Outward-rounded enclosure of `eval(x) / x` over every `x` in the
    /// zero-free interval `xs` (see [`Interval::affine_ratio_over`]) —
    /// used to bracket a supremum across an imprecisely known crossing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `xs` contains zero.
    pub fn ratio_enclosure_over(&self, xs: Interval) -> Result<Interval> {
        Interval::affine_ratio_over(self.slope, self.intercept, xs)
    }

    /// An enclosure of the *true* crossing position of `self` and
    /// `other`: [`Affine::crossing`] rounds twice (`sub` then `div`),
    /// so the real crossing lies inside the outward-rounded quotient.
    /// `None` when the lines are parallel or the slope difference is so
    /// small that its enclosure straddles zero (the crossing position
    /// is then numerically unbounded and cannot be certified).
    #[must_use]
    pub fn crossing_enclosure(&self, other: &Affine) -> Option<Interval> {
        let ds = self.slope - other.slope;
        if ds == 0.0 {
            return None;
        }
        let num = Interval::around(other.intercept - self.intercept).ok()?;
        let den = Interval::around(ds).ok()?;
        num.div(den).ok()
    }

    fn from_segment(a: SpaceTime, b: SpaceTime) -> Affine {
        let slope = (b.t - a.t) / (b.x - a.x);
        Affine { slope, intercept: a.t - slope * a.x }
    }
}

/// The exact piecewise-affine structure of a fleet's visit times over
/// a positive window `[lo, hi]`, produced by [`first_visit_cover`] or
/// [`all_visit_cover`].
///
/// Every interval's affines sit in one flat buffer, each tagged with
/// the index of the trajectory that contributes it. Within an
/// interval, entries run in robot order, and per robot in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCover {
    /// Sorted, deduplicated critical points within `[lo, hi]`,
    /// including both window endpoints.
    cuts: Vec<f64>,
    /// The smallest waypoint projection strictly beyond `hi`, if any
    /// robot's trajectory reaches past the window.
    beyond: Option<f64>,
    /// Interval `i`'s entries are `offsets[i]..offsets[i + 1]`, valid
    /// on the open interval `(cuts[i], cuts[i+1])`; when `beyond` is
    /// present a final interval covers `(hi, beyond)`.
    offsets: Vec<usize>,
    /// The visit-time affine of every entry.
    affines: Vec<Affine>,
    /// The index of the robot contributing every entry.
    robots: Vec<u32>,
}

impl WindowCover {
    /// The critical points within the window, endpoints included.
    #[must_use]
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// The first waypoint projection strictly beyond the window, if
    /// any trajectory reaches past `hi`.
    #[must_use]
    pub fn beyond(&self) -> Option<f64> {
        self.beyond
    }

    /// The number of intervals, the beyond-window interval included.
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The affines valid on interval `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn affines(&self, i: usize) -> &[Affine] {
        &self.affines[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The robot contributing each of [`WindowCover::affines`]`(i)`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn robots(&self, i: usize) -> &[u32] {
        &self.robots[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether interval `i` is the beyond-window interval `(hi,
    /// beyond)`, whose affines should only be evaluated at `hi` (the
    /// right-hand limit at the window edge).
    #[must_use]
    pub fn is_beyond(&self, i: usize) -> bool {
        self.beyond.is_some() && i + 1 == self.interval_count()
    }

    /// The open bounds `(lo_i, hi_i)` of interval `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn interval_bounds(&self, i: usize) -> (f64, f64) {
        if self.is_beyond(i) {
            (self.cuts[self.cuts.len() - 1], self.beyond.expect("beyond interval exists"))
        } else {
            (self.cuts[i], self.cuts[i + 1])
        }
    }

    /// Lays robot-major `(interval, robot, affine)` entries out
    /// interval-major: a stable counting sort by interval, so every
    /// interval keeps the entries' generation order.
    fn assemble(
        cuts: Vec<f64>,
        beyond: Option<f64>,
        intervals: usize,
        entries: &[(u32, u32, Affine)],
    ) -> WindowCover {
        let mut offsets = vec![0usize; intervals + 1];
        for &(j, _, _) in entries {
            offsets[j as usize + 1] += 1;
        }
        for j in 0..intervals {
            offsets[j + 1] += offsets[j];
        }
        let mut slots = offsets.clone();
        let mut affines = vec![Affine { slope: 0.0, intercept: 0.0 }; entries.len()];
        let mut robots = vec![0u32; entries.len()];
        for &(j, robot, affine) in entries {
            let slot = &mut slots[j as usize];
            affines[*slot] = affine;
            robots[*slot] = robot;
            *slot += 1;
        }
        WindowCover { cuts, beyond, offsets, affines, robots }
    }
}

/// Collects the cut set and the extended interval boundary list for a
/// window: waypoint projections inside `(lo, hi)`, the endpoints, and
/// the first projection strictly beyond `hi`.
fn collect_cuts(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> (Vec<f64>, Option<f64>, Vec<f64>) {
    let waypoints: usize = trajectories.iter().map(|t| t.waypoints().len()).sum();
    let mut cuts = Vec::with_capacity(waypoints + 2);
    cuts.extend([lo, hi]);
    let mut beyond: Option<f64> = None;
    for traj in trajectories {
        for w in traj.waypoints() {
            if w.x > lo && w.x < hi {
                cuts.push(w.x);
            } else if w.x > hi {
                beyond = Some(beyond.map_or(w.x, |b| b.min(w.x)));
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut boundaries = Vec::with_capacity(cuts.len() + 1);
    boundaries.extend_from_slice(&cuts);
    if let Some(b) = beyond {
        boundaries.push(b);
    }
    (cuts, beyond, boundaries)
}

fn validate_window(trajectories: &[PiecewiseTrajectory], lo: f64, hi: f64) -> Result<()> {
    if trajectories.is_empty() {
        return Err(Error::domain("critical-point enumeration needs at least one trajectory"));
    }
    if !(lo > 0.0) || !(hi > lo) || !hi.is_finite() {
        return Err(Error::domain(format!(
            "critical-point window needs 0 < lo < hi finite, got [{lo}, {hi}]"
        )));
    }
    Ok(())
}

/// Returns the interval-index range `[start, end)` fully covered by a
/// moving segment spanning `[s_lo, s_hi]`, against the sorted boundary
/// list. Span endpoints are waypoint projections, hence never strictly
/// inside any interval: coverage is all-or-nothing per interval.
fn covered_range(boundaries: &[f64], s_lo: f64, s_hi: f64) -> (usize, usize) {
    let start = boundaries.partition_point(|&c| c < s_lo);
    let end = boundaries.partition_point(|&c| c <= s_hi);
    // Intervals start .. end-1 satisfy boundaries[j] >= s_lo and
    // boundaries[j + 1] <= s_hi.
    (start, end.saturating_sub(1))
}

/// The moving segments of `traj` in time order that fully cover at
/// least one interval, as `(start, end, affine)`: the segment covers
/// intervals `start..end` of `boundaries`.
fn covering_segments<'a>(
    traj: &'a PiecewiseTrajectory,
    boundaries: &'a [f64],
) -> impl Iterator<Item = (usize, usize, Affine)> + 'a {
    traj.segments().filter_map(move |seg| {
        if seg.a.x == seg.b.x {
            return None; // stationary: never covers an open interval
        }
        let (s_lo, s_hi) = if seg.a.x < seg.b.x { (seg.a.x, seg.b.x) } else { (seg.b.x, seg.a.x) };
        let (start, end) = covered_range(boundaries, s_lo, s_hi);
        (start < end).then(|| (start, end, Affine::from_segment(seg.a, seg.b)))
    })
}

/// First-unfilled lookup with path compression over the per-robot
/// assignment pointers: `next[j]` points at the first interval index
/// `>= j` not yet assigned a first-visit affine.
fn find_unfilled(next: &mut [u32], j: usize) -> usize {
    let mut root = j;
    while next[root] as usize != root {
        root = next[root] as usize;
    }
    let mut cur = j;
    while next[cur] as usize != cur {
        let succ = next[cur] as usize;
        next[cur] = root as u32;
        cur = succ;
    }
    root
}

/// Enumerates the critical points of a fleet over `[lo, hi]` and the
/// *first-visit* affine of every robot on every inter-cut interval:
/// per robot, the earliest (in time order) segment covering the
/// interval. `T_k(x)` restricted to an interval is the k-th order
/// statistic of its affines, so an interval with fewer than `k`
/// affines is not `k`-covered anywhere in its interior.
///
/// Each interval holds at most one affine per robot, in robot order.
/// A robot's first-visit affine depends only on its own trajectory, so
/// restricting an interval's entries to a subset of robots yields
/// exactly that sub-fleet's visit structure there.
///
/// # Errors
///
/// Returns [`Error::Domain`] for an empty fleet or a window violating
/// `0 < lo < hi < inf`.
pub fn first_visit_cover(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    validate_window(trajectories, lo, hi)?;
    let (cuts, beyond, boundaries) = collect_cuts(trajectories, lo, hi);
    let m = boundaries.len() - 1;
    let mut entries = Vec::with_capacity(trajectories.len() * m);
    let mut next: Vec<u32> = Vec::with_capacity(m + 1);
    for (robot, traj) in trajectories.iter().enumerate() {
        next.clear();
        next.extend(0..=m as u32); // identity: everything unfilled
        let mut unfilled = m;
        for (start, end, affine) in covering_segments(traj, &boundaries) {
            let mut j = find_unfilled(&mut next, start);
            while j < end {
                entries.push((j as u32, robot as u32, affine));
                next[j] = j as u32 + 1;
                unfilled -= 1;
                j = find_unfilled(&mut next, j + 1);
            }
            if unfilled == 0 {
                break; // later segments can no longer be first visits
            }
        }
    }
    Ok(WindowCover::assemble(cuts, beyond, m, &entries))
}

/// Like [`first_visit_cover`], but collects *every* covering segment's
/// affine per interval (all robots, all passes) — the visit multiset
/// needed by expected-cost evaluation, where later revisits still
/// carry probability mass.
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn all_visit_cover(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    validate_window(trajectories, lo, hi)?;
    let (cuts, beyond, boundaries) = collect_cuts(trajectories, lo, hi);
    let m = boundaries.len() - 1;
    let mut entries = Vec::new();
    for (robot, traj) in trajectories.iter().enumerate() {
        for (start, end, affine) in covering_segments(traj, &boundaries) {
            entries.extend((start..end).map(|j| (j as u32, robot as u32, affine)));
        }
    }
    Ok(WindowCover::assemble(cuts, beyond, m, &entries))
}

/// Reflects trajectories across the origin (`x -> -x`), so the
/// negative half-line can be analyzed with the positive-window
/// machinery above.
///
/// # Errors
///
/// Propagates trajectory re-validation failures (mirroring preserves
/// every structural invariant, so this only fires on corrupt input).
pub fn mirrored(trajectories: &[PiecewiseTrajectory]) -> Result<Vec<PiecewiseTrajectory>> {
    trajectories
        .iter()
        .map(|t| {
            // Reflection preserves segment speeds exactly, so carry the
            // source trajectory's own speed bound: heterogeneous-speed
            // fleets (speeds above 1) mirror as freely as unit fleets.
            let max_speed = t.segments().map(|s| s.speed()).fold(1.0f64, f64::max);
            PiecewiseTrajectory::with_speed_limit(
                t.waypoints().iter().map(|w| SpaceTime::new(-w.x, w.t)).collect(),
                max_speed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::TrajectoryBuilder;

    fn doubling_prefix() -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin()
            .sweep_to(1.0)
            .sweep_to(-2.0)
            .sweep_to(4.0)
            .sweep_to(-8.0)
            .finish()
            .unwrap()
    }

    #[test]
    fn affine_eval_and_crossing() {
        let a = Affine { slope: 1.0, intercept: 6.0 };
        let b = Affine { slope: -1.0, intercept: 14.0 };
        assert_eq!(a.eval(2.0), 8.0);
        assert_eq!(a.crossing(&b), Some(4.0));
        assert_eq!(b.crossing(&a), Some(4.0));
        assert_eq!(a.crossing(&a), None);
        assert_eq!(b.position_of_time(9.0), Some(5.0));
        assert_eq!(Affine { slope: 0.0, intercept: 3.0 }.position_of_time(9.0), None);
    }

    #[test]
    fn window_rejects_bad_input() {
        let t = doubling_prefix();
        assert!(first_visit_cover(&[], 1.0, 6.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 0.0, 6.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 2.0, 2.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn doubling_cover_matches_pointwise_first_visits() {
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 6.0).unwrap();
        // Waypoint projections inside (1, 6): only +4.
        assert_eq!(cover.cuts(), &[1.0, 4.0, 6.0]);
        assert_eq!(cover.beyond(), None, "no waypoint beyond +6");
        assert_eq!(cover.interval_count(), 2);
        // (1, 4): first covered by the sweep -2 -> +4, t(x) = x + 6.
        let a = cover.affines(0)[0];
        assert_eq!((a.slope, a.intercept), (1.0, 6.0));
        for x in [1.5, 2.0, 3.9] {
            let exact = cover.affines(0)[0].eval(x);
            assert_eq!(Some(exact), t.first_visit(x), "x = {x}");
        }
        // (4, 6): the trajectory never exceeds +4, so the interval has
        // no covering affine — exactly how incomplete coverage shows.
        assert!(cover.affines(1).is_empty());
        assert_eq!(t.first_visit(5.0), None);
    }

    #[test]
    fn interval_endpoint_evaluation_is_the_one_sided_limit() {
        // At the turning cut x = 1 the pointwise first visit is t = 1,
        // while the right-hand interval's affine evaluated at 1 gives
        // the limit from above, t = 7 (the return sweep -2 -> +4) —
        // strictly later, which is exactly why the supremum probes
        // interval limits instead of pointwise values at cuts.
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 6.0).unwrap();
        assert_eq!(t.first_visit(1.0), Some(1.0));
        assert_eq!(cover.affines(0)[0].eval(1.0), 7.0);
        // At x = 4 (a turning waypoint reached on the way up) the
        // left-hand limit coincides with the pointwise visit, t = 10.
        assert_eq!(t.first_visit(4.0), Some(10.0));
        assert_eq!(cover.affines(0)[0].eval(4.0), 10.0);
    }

    #[test]
    fn beyond_interval_tracks_the_first_projection_past_the_window() {
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 3.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 3.0]);
        assert_eq!(cover.beyond(), Some(4.0));
        assert_eq!(cover.interval_count(), 2);
        assert!(cover.is_beyond(1));
        assert!(!cover.is_beyond(0));
        assert_eq!(cover.interval_bounds(1), (3.0, 4.0));
        // Evaluated at the window edge: the right-hand limit of the
        // first visit at 3 is on the sweep -2 -> +4 (t = x + 6 = 9).
        assert_eq!(cover.affines(1)[0].eval(3.0), 9.0);
    }

    #[test]
    fn first_visit_cover_keeps_only_the_earliest_covering_segment() {
        // The sweep -2 -> +4 and the sweep +4 -> -8 both cover (1, 2);
        // first-visit keeps only the earlier one per robot.
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 2.0).unwrap();
        assert_eq!(cover.affines(0).len(), 1);
        assert_eq!(cover.affines(0)[0].slope, 1.0);
    }

    #[test]
    fn all_visit_cover_collects_every_pass() {
        let t = doubling_prefix();
        let cover = all_visit_cover(std::slice::from_ref(&t), 1.0, 2.0).unwrap();
        // (1, 2) is crossed by -2 -> +4 and by +4 -> -8 (and by the
        // initial 0 -> 1 sweep? no: its span [0, 1] stops at the cut).
        assert_eq!(cover.affines(0).len(), 2);
        let times: Vec<f64> = cover.affines(0).iter().map(|a| a.eval(1.5)).collect();
        assert_eq!(times, t.visits(1.5));
    }

    #[test]
    fn multi_robot_cuts_partition_by_every_waypoint() {
        let a = doubling_prefix();
        let b = TrajectoryBuilder::from_origin().sweep_to(3.0).sweep_to(-5.0).finish().unwrap();
        let cover = first_visit_cover(&[a.clone(), b.clone()], 1.0, 6.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 3.0, 4.0, 6.0]);
        // On (1, 3) both robots contribute a first-visit affine.
        assert_eq!(cover.affines(0).len(), 2);
        for x in [1.5, 2.5] {
            let mut exact: Vec<f64> = cover.affines(0).iter().map(|f| f.eval(x)).collect();
            exact.sort_by(f64::total_cmp);
            let mut pointwise = vec![a.first_visit(x).unwrap(), b.first_visit(x).unwrap()];
            pointwise.sort_by(f64::total_cmp);
            assert_eq!(exact, pointwise, "x = {x}");
        }
        // (3, 4) is reached only by the doubling robot's -2 -> +4
        // sweep; (4, 6) is beyond every excursion and stays empty.
        assert_eq!(cover.affines(1).len(), 1);
        assert_eq!((cover.affines(1)[0].slope, cover.affines(1)[0].intercept), (1.0, 6.0));
        assert!(cover.affines(2).is_empty());
    }

    #[test]
    fn mirrored_trajectories_swap_sides_losslessly() {
        let t = doubling_prefix();
        let m = mirrored(std::slice::from_ref(&t)).unwrap();
        assert_eq!(m.len(), 1);
        for x in [-1.5, 2.0, -4.0] {
            assert_eq!(m[0].first_visit(x), t.first_visit(-x), "x = {x}");
        }
        let back = mirrored(&m).unwrap();
        assert_eq!(back[0], t);
    }

    #[test]
    fn enclosures_bracket_evaluations_and_crossings() {
        let a = Affine { slope: 1.0, intercept: 6.0 };
        let b = Affine { slope: -1.0, intercept: 14.0 };
        for x in [1.0, 2.5, 3.75] {
            let t = a.enclosure_at(x).unwrap();
            assert!(t.contains(a.eval(x)), "x = {x}");
            let r = a.ratio_enclosure(x).unwrap();
            assert!(r.contains(a.eval(x) / x), "x = {x}");
        }
        // The crossing enclosure contains the f64 crossing (and the
        // real one: these coefficients are exact, so they coincide).
        let xc = a.crossing(&b).unwrap();
        let enc = a.crossing_enclosure(&b).unwrap();
        assert!(enc.contains(xc));
        assert!(enc.width() < 1e-12 * xc.abs());
        assert!(a.crossing_enclosure(&a).is_none(), "parallel lines have no crossing");
        // The range form covers every point of the span.
        let span = Interval::new(2.0, 3.0).unwrap();
        let over = a.ratio_enclosure_over(span).unwrap();
        for x in [2.0, 2.4, 3.0] {
            assert!(over.contains(a.slope + a.intercept / x), "x = {x}");
        }
    }

    #[test]
    fn first_visit_cover_tags_each_affine_with_its_robot() {
        let a = doubling_prefix();
        let b = TrajectoryBuilder::from_origin().sweep_to(3.0).sweep_to(-5.0).finish().unwrap();
        let fleet = [a, b];
        let cover = first_visit_cover(&fleet, 1.0, 6.0).unwrap();
        for i in 0..cover.interval_count() {
            assert_eq!(cover.robots(i).len(), cover.affines(i).len(), "interval {i}");
            assert!(cover.robots(i).windows(2).all(|w| w[0] < w[1]), "interval {i}");
            // A robot's tagged affine is its pointwise first visit.
            let (lo, hi) = cover.interval_bounds(i);
            let mid = 0.5 * (lo + hi);
            for (robot, traj) in fleet.iter().enumerate() {
                let tagged = cover.robots(i).iter().position(|&r| r as usize == robot);
                let time = tagged.map(|e| cover.affines(i)[e].eval(mid));
                assert_eq!(time, traj.first_visit(mid), "interval {i}, robot {robot}");
            }
        }
        // On (1, 3) robot 0's affine is the -2 -> +4 sweep and robot
        // 1's is the 0 -> +3 sweep: attribution is by index.
        assert_eq!(cover.robots(0), &[0, 1]);
    }

    #[test]
    fn stationary_segments_never_cover_an_interval() {
        let t = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .hold_until(10.0)
            .sweep_to(5.0)
            .finish()
            .unwrap();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 4.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 2.0, 4.0]);
        // (2, 4) is covered only by the final sweep, not by the hold.
        assert_eq!(cover.affines(1).len(), 1);
        assert_eq!(cover.affines(1)[0].eval(3.0), 11.0);
    }
}
