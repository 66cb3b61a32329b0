//! The exploration engine: canonical frontier, dominance pruning, and
//! serial evaluation in canonical order.
//!
//! # State space
//!
//! An adversary state is a pair `(fault mask, target interval)`: which
//! robots fail and which cell of the critical-point partition the
//! target sits in (the in-cell position is resolved exactly by the
//! critical-point argument — endpoints plus pairwise crossings, the
//! candidates of the exact scan's [`FleetScan`]). The engine
//! canonicalizes masks two ways before exploring:
//!
//! 1. **Robot symmetry** — robots with bitwise-identical induced
//!    affine contributions (same visit-time affine in every interval
//!    of both window sides) are interchangeable, so masks are reduced
//!    to per-group fault counts.
//! 2. **Cover collapse** — classes inducing bit-identical reliable
//!    [`faultline_core::exact::WindowCover`]s merge (faulting a robot
//!    that never enters the window is the empty mask).
//!
//! # Dominance pruning
//!
//! Two certified cuts, both bitwise-lossless for the reported worst
//! value:
//!
//! * **Subset dominance** — a class with fewer than `f` faults is
//!   dominated by any superset class (more faults can only remove
//!   visit times from the reliable minimum), so only exactly-`f`
//!   classes are evaluated.
//! * **Branch and bound** — each remaining state gets a cheap sound
//!   upper bound `min_row max_col rhi` from the outward-rounded ratio
//!   matrices; states whose bound does not exceed the certified
//!   enclosure *lower* bound of the best-looking state are pruned.
//!   Because the threshold is a certified lower bound (≤ the f64
//!   value) the pruned states provably cannot change the maximum.
//!
//! # Determinism
//!
//! Four phases, all on the caller's thread: (A) per-interval matrix
//! builds, in interval order; (B) frontier and class assembly; (C)
//! evaluation of the single best-bound state; (D) evaluation of the
//! surviving states, merged in canonical order. No randomness and no
//! threads anywhere — reports are byte-identical across runs and
//! `FAULTLINE_THREADS` settings, and a budget overflow is a hard error
//! rather than a silent subsample.

use std::collections::{BTreeMap, VecDeque};

use faultline_analysis::exact::{crossing_ranges, FleetScan, SideTable};
use faultline_core::coverage::prefer_argmax;
use faultline_core::exact::Affine;
use faultline_core::{Algorithm, Error, Fleet, Geometry, Params, Result};

use crate::report::{ExploreReport, WorstCase, REPORT_VERSION};

/// Configuration of an exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreConfig {
    /// Maximum number of equivalence-class states to evaluate; an
    /// overflow is a hard error, never a subsample. `None` = default.
    pub budget: Option<usize>,
    /// Recorded in the report for provenance; the engine is
    /// deterministic and never draws from it.
    pub seed: u64,
    /// Disables dominance pruning when `true` — the exhaustive
    /// differential baseline behind the CLI's `--exhaustive` flag.
    pub exhaustive: bool,
}

/// Default evaluation budget: `2^14` equivalence-class states.
pub const DEFAULT_BUDGET: usize = 1 << 14;

impl ExploreConfig {
    fn budget(&self) -> usize {
        self.budget.unwrap_or(DEFAULT_BUDGET)
    }
}

/// Precomputed evaluation tables for one target interval of one side.
struct IntervalTable {
    /// `+1.0` for the positive side, `-1.0` for the mirrored side.
    sign: f64,
    /// Robot owning each affine row (at most one row per robot).
    rows: Vec<u32>,
    /// Point candidates in side coordinates: the exact scan's own.
    points: Vec<f64>,
    /// `ratio[r][c]`: the f64 ratio of row `r` at point `c`, computed
    /// in the scan engine's operation order.
    ratio: Vec<Vec<f64>>,
    /// Outward-rounded lower bounds of `ratio[r][c]`.
    rlo: Vec<Vec<f64>>,
    /// Outward-rounded upper bounds of `ratio[r][c]`.
    rhi: Vec<Vec<f64>>,
    /// Upper bounds of each row's ratio over the certified crossing
    /// ranges (`range_hi[r][q]`): covers the true breakpoints that f64
    /// point candidates can miss by an ulp.
    range_hi: Vec<Vec<f64>>,
    /// Per-row maximum over every point and range upper bound.
    rowmax: Vec<f64>,
}

/// Serial description of a table build job (Phase A input): one
/// interval of one side of the fleet's scan.
struct TableJob<'a> {
    sign: f64,
    side: &'a SideTable,
    interval: usize,
}

impl<'a> TableJob<'a> {
    fn robots(&self) -> &'a [u32] {
        self.side.cover().robots(self.interval)
    }

    fn affines(&self) -> &'a [Affine] {
        self.side.cover().affines(self.interval)
    }
}

fn build_table(job: &TableJob<'_>) -> Result<IntervalTable> {
    let (cover, i) = (job.side.cover(), job.interval);
    let affines = job.affines();
    let points: Vec<f64> = job.side.candidates(i).collect();
    // Certified ranges around the true crossings (upper bounds only).
    let mut ranges = Vec::new();
    if !cover.is_beyond(i) {
        let (lo, hi) = cover.interval_bounds(i);
        crossing_ranges(affines, lo, hi, &mut ranges)?;
    }
    let mut ratio = Vec::with_capacity(affines.len());
    let mut rlo = Vec::with_capacity(affines.len());
    let mut rhi = Vec::with_capacity(affines.len());
    let mut range_hi = Vec::with_capacity(affines.len());
    let mut rowmax = Vec::with_capacity(affines.len());
    for a in affines {
        let mut rr = Vec::with_capacity(points.len());
        let mut rl = Vec::with_capacity(points.len());
        let mut rh = Vec::with_capacity(points.len());
        for &x in &points {
            // Same ops as the exact scan: eval, then one division.
            rr.push(a.eval(x) / x);
            let enc = a.ratio_enclosure(x)?;
            rl.push(enc.lo());
            rh.push(enc.hi());
        }
        let mut rq = Vec::with_capacity(ranges.len());
        for &xs in &ranges {
            rq.push(a.ratio_enclosure_over(xs)?.hi());
        }
        let mut rm = f64::NEG_INFINITY;
        for &v in rh.iter().chain(rq.iter()) {
            rm = rm.max(v);
        }
        ratio.push(rr);
        rlo.push(rl);
        rhi.push(rh);
        range_hi.push(rq);
        rowmax.push(rm);
    }
    Ok(IntervalTable {
        sign: job.sign,
        rows: job.robots().to_vec(),
        points,
        ratio,
        rlo,
        rhi,
        range_hi,
        rowmax,
    })
}

/// The exact evaluation of one `(class, interval)` state.
#[derive(Debug, Clone, Copy)]
struct StateEval {
    /// Worst f64 ratio over the interval's point candidates.
    value: f64,
    /// Signed target attaining it.
    target: f64,
    /// Certified lower bound (point candidates only, so `lo <= value`).
    lo: f64,
    /// Certified upper bound (point and crossing-range columns, so the
    /// true supremum of the branch over the interval is `<= hi`).
    hi: f64,
}

fn evaluate_state(table: &IntervalTable, faulty: &[bool]) -> StateEval {
    let reliable: Vec<usize> =
        (0..table.rows.len()).filter(|&i| !faulty[table.rows[i] as usize]).collect();
    debug_assert!(!reliable.is_empty(), "covered intervals keep a reliable row under <= f faults");
    let mut best: Option<(f64, f64)> = None;
    let mut lo_acc = f64::NEG_INFINITY;
    let mut hi_acc = f64::NEG_INFINITY;
    for (c, &x) in table.points.iter().enumerate() {
        let mut v = f64::INFINITY;
        let mut l = f64::INFINITY;
        let mut h = f64::INFINITY;
        for &r in &reliable {
            v = v.min(table.ratio[r][c]);
            l = l.min(table.rlo[r][c]);
            h = h.min(table.rhi[r][c]);
        }
        lo_acc = lo_acc.max(l);
        hi_acc = hi_acc.max(h);
        let sx = table.sign * x;
        let replace = match best {
            None => true,
            Some((bv, bx)) => v > bv || (v == bv && prefer_argmax(sx, bx)),
        };
        if replace {
            best = Some((v, sx));
        }
    }
    let range_cols = table.range_hi.first().map_or(0, Vec::len);
    for q in 0..range_cols {
        let mut h = f64::INFINITY;
        for &r in &reliable {
            h = h.min(table.range_hi[r][q]);
        }
        hi_acc = hi_acc.max(h);
    }
    let (value, target) = best.expect("every interval carries at least one point candidate");
    StateEval { value, target, lo: lo_acc, hi: hi_acc }
}

/// Cheap certified upper bound on a state's value: `min_row max_col`
/// of the outward upper-bound matrix dominates `max_col min_row`.
fn state_upper_bound(table: &IntervalTable, faulty: &[bool]) -> f64 {
    let mut ub = f64::INFINITY;
    for (i, &r) in table.rows.iter().enumerate() {
        if !faulty[r as usize] {
            ub = ub.min(table.rowmax[i]);
        }
    }
    ub
}

/// A merged canonical fault class.
struct MaskClass {
    /// Raw masks this class represents, invisible-group placements
    /// included.
    multiplicity: usize,
    /// Whether the class must be evaluated (exactly `f` faults, or
    /// every visible group saturated) rather than subset-pruned.
    evaluate: bool,
    /// Canonical representative: `faulty[robot]` for the first
    /// `key[g]` members of each visible group.
    faulty: Vec<bool>,
}

/// `Σ_{k<=f} C(n, k)`, saturating.
fn mask_space_size(n: usize, f: usize) -> usize {
    let mut total: usize = 0;
    let mut binom: u128 = 1;
    for k in 0..=f.min(n) {
        if k > 0 {
            binom = binom * (n as u128 - k as u128 + 1) / k as u128;
        }
        total = total.saturating_add(usize::try_from(binom).unwrap_or(usize::MAX));
    }
    total
}

/// Number of per-group count vectors with `counts[g] <= caps[g]` and
/// total `<= f`, by saturating DP — bounds the frontier before it is
/// materialized.
fn class_space_size(caps: &[usize], f: usize) -> usize {
    let mut ways = vec![0usize; f + 1];
    ways[0] = 1;
    for &cap in caps {
        let mut next = vec![0usize; f + 1];
        for t in 0..=f {
            if ways[t] == 0 {
                continue;
            }
            for c in 0..=cap.min(f - t) {
                next[t + c] = next[t + c].saturating_add(ways[t]);
            }
        }
        ways = next;
    }
    ways.iter().fold(0usize, |a, &b| a.saturating_add(b))
}

/// `C(n, k)` as a saturating usize.
fn binomial(n: usize, k: usize) -> usize {
    let mut b: u128 = 1;
    for i in 0..k.min(n - k) {
        b = b * (n as u128 - i as u128) / (i as u128 + 1);
    }
    usize::try_from(b).unwrap_or(usize::MAX)
}

/// Enumerates every per-group fault-count vector with total `<= f`
/// through an explicit FIFO frontier (no recursion); each vector is
/// generated exactly once by only incrementing groups at or after the
/// last incremented index.
fn frontier_classes(caps: &[usize], f: usize) -> Vec<Vec<u32>> {
    let mut queue: VecDeque<(Vec<u32>, usize)> = VecDeque::new();
    queue.push_back((vec![0; caps.len()], 0));
    let mut classes = Vec::new();
    while let Some((counts, from)) = queue.pop_front() {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if total < f {
            for g in from..caps.len() {
                if (counts[g] as usize) < caps[g] {
                    let mut next = counts.clone();
                    next[g] += 1;
                    queue.push_back((next, g));
                }
            }
        }
        classes.push(counts);
    }
    classes
}

/// Robots grouped by bitwise-identical affine contributions across
/// every interval of both sides. Groups are ordered by their smallest
/// member; `signature[g]` empty means the group never appears in the
/// window ("invisible").
struct Symmetry {
    members: Vec<Vec<u32>>,
    visible: Vec<bool>,
}

fn group_robots(n: usize, jobs: &[TableJob<'_>]) -> Symmetry {
    let mut signatures: Vec<Vec<(u32, u64, u64)>> = vec![Vec::new(); n];
    for (t, job) in jobs.iter().enumerate() {
        for (&robot, a) in job.robots().iter().zip(job.affines()) {
            signatures[robot as usize].push((t as u32, a.slope.to_bits(), a.intercept.to_bits()));
        }
    }
    let mut by_signature: BTreeMap<Vec<(u32, u64, u64)>, Vec<u32>> = BTreeMap::new();
    for (robot, sig) in signatures.into_iter().enumerate() {
        by_signature.entry(sig).or_default().push(robot as u32);
    }
    let mut members: Vec<Vec<u32>> = by_signature.values().cloned().collect();
    members.sort_by_key(|m| m[0]);
    let visible = members.iter().map(|m| jobs.iter().any(|j| j.robots().contains(&m[0]))).collect();
    Symmetry { members, visible }
}

/// Explores the full `(fault mask × target interval)` adversary space
/// of a fleet and reports the worst-case competitive ratio with full
/// coverage accounting and a certified enclosure.
///
/// The reported worst value is bit-identical to
/// [`faultline_analysis::exact_supremum`]`(fleet, f + 1, xmax).ratio`
/// whether or not pruning is enabled; see the module docs for why the
/// cuts are lossless.
///
/// # Errors
///
/// Rejects `f >= n`, windows the fleet does not cover at fault budget
/// `f` (the supremum is unbounded — nothing to enclose), and state
/// spaces larger than the configured budget (exploration never
/// silently subsamples).
pub fn explore_fleet(
    fleet: &Fleet,
    f: usize,
    xmax: f64,
    config: &ExploreConfig,
) -> Result<ExploreReport> {
    let n = fleet.len();
    if f >= n {
        return Err(Error::domain(format!(
            "fault budget f = {f} must be smaller than the fleet size n = {n}"
        )));
    }
    // The independent scan doubles as the coverage gate: uncovered
    // windows have an unbounded supremum and cannot be explored.
    let scan = FleetScan::new(fleet.trajectories(), f + 1, xmax, Geometry::Line)?;
    let exact = scan.scan();
    if exact.uncovered > 0 || !exact.ratio.is_finite() {
        return Err(Error::domain(format!(
            "the window [1, {xmax}] is not covered at fault budget {f}: \
             the worst-case ratio is unbounded"
        )));
    }

    let mut jobs: Vec<TableJob<'_>> = Vec::new();
    for (sign, side) in [1.0, -1.0].into_iter().zip(scan.sides()) {
        for interval in 0..side.cover().interval_count() {
            jobs.push(TableJob { sign, side, interval });
        }
    }

    // Phase B: serial frontier, symmetry grouping, and cover collapse.
    // It needs only the covers, so both budgets refuse a fleet before
    // Phase A builds a single table.
    let symmetry = group_robots(n, &jobs);
    let caps: Vec<usize> = symmetry.members.iter().map(Vec::len).collect();
    let class_space = class_space_size(&caps, f);
    if class_space > config.budget().max(1 << 20) {
        return Err(Error::domain(format!(
            "class space of {class_space} states exceeds the exploration budget {}: \
             need budget >= {class_space} for (n = {n}, f = {f}) — \
             raise --budget instead of subsampling",
            config.budget()
        )));
    }
    let raw_classes = frontier_classes(&caps, f);
    debug_assert_eq!(raw_classes.len(), class_space);
    let mask_classes = raw_classes.len();
    let visible_groups: Vec<usize> = (0..caps.len()).filter(|&g| symmetry.visible[g]).collect();
    let mut merged: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
    for counts in &raw_classes {
        let key: Vec<u32> = visible_groups.iter().map(|&g| counts[g]).collect();
        let mult: usize = counts
            .iter()
            .enumerate()
            .map(|(g, &c)| binomial(caps[g], c as usize))
            .fold(1usize, |a, b| a.saturating_mul(b));
        *merged.entry(key).or_insert(0) += mult;
    }
    let classes: Vec<MaskClass> = merged
        .into_iter()
        .map(|(key, multiplicity)| {
            let total: usize = key.iter().map(|&c| c as usize).sum();
            let saturated = key.iter().zip(&visible_groups).all(|(&c, &g)| c as usize == caps[g]);
            let mut faulty = vec![false; n];
            for (&c, &g) in key.iter().zip(&visible_groups) {
                for &robot in &symmetry.members[g][..c as usize] {
                    faulty[robot as usize] = true;
                }
            }
            MaskClass { multiplicity, evaluate: total == f || saturated, faulty }
        })
        .collect();
    let mask_count = mask_space_size(n, f);
    debug_assert_eq!(classes.iter().map(|c| c.multiplicity).sum::<usize>(), mask_count);
    let collapsed_covers = mask_classes - classes.len();
    let intervals = jobs.len();
    let class_states = classes.len() * intervals;
    let raw_states = mask_count.saturating_mul(intervals);

    // The evaluation frontier: canonical (class, interval) order.
    let states: Vec<(usize, usize)> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| config.exhaustive || c.evaluate)
        .flat_map(|(ci, _)| (0..intervals).map(move |ti| (ci, ti)))
        .collect();
    if states.len() > config.budget() {
        return Err(Error::domain(format!(
            "{} evaluations exceed the exploration budget {}: \
             need budget >= {} for (n = {n}, f = {f}) — \
             raise --budget instead of subsampling",
            states.len(),
            config.budget(),
            states.len()
        )));
    }

    // Phase A: per-interval matrix builds over the candidates the gate
    // scanned.
    let tables: Vec<IntervalTable> = jobs.iter().map(build_table).collect::<Result<_>>()?;

    // Phases C + D: bound, prune, evaluate, and merge.
    let evals: Vec<Option<StateEval>> = if config.exhaustive {
        states
            .iter()
            .map(|&(ci, ti)| Some(evaluate_state(&tables[ti], &classes[ci].faulty)))
            .collect()
    } else {
        let bounds: Vec<f64> = states
            .iter()
            .map(|&(ci, ti)| state_upper_bound(&tables[ti], &classes[ci].faulty))
            .collect();
        let leader = (0..states.len())
            .max_by(|&a, &b| bounds[a].partial_cmp(&bounds[b]).expect("bounds are finite"))
            .expect("a covered window always has an exactly-f state");
        let (lci, lti) = states[leader];
        let leader_eval = evaluate_state(&tables[lti], &classes[lci].faulty);
        let threshold = leader_eval.lo;
        let mut slots: Vec<Option<StateEval>> = vec![None; states.len()];
        slots[leader] = Some(leader_eval);
        for (s, &(ci, ti)) in states.iter().enumerate() {
            if s != leader && bounds[s] > threshold {
                slots[s] = Some(evaluate_state(&tables[ti], &classes[ci].faulty));
            }
        }
        slots
    };

    // Serial merge in canonical order with the scan's tie-break.
    let mut worst: Option<(f64, f64, usize)> = None;
    let mut lo_acc = f64::NEG_INFINITY;
    let mut hi_acc = f64::NEG_INFINITY;
    let mut explored = 0usize;
    let mut raw_covered = 0usize;
    for (s, eval) in evals.iter().enumerate() {
        let Some(eval) = eval else { continue };
        explored += 1;
        raw_covered = raw_covered.saturating_add(classes[states[s].0].multiplicity);
        lo_acc = lo_acc.max(eval.lo);
        hi_acc = hi_acc.max(eval.hi);
        let replace = match worst {
            None => true,
            Some((bv, bx, _)) => {
                eval.value > bv || (eval.value == bv && prefer_argmax(eval.target, bx))
            }
        };
        if replace {
            worst = Some((eval.value, eval.target, states[s].0));
        }
    }
    let (value, target, worst_class) =
        worst.expect("a covered window evaluates at least one state");
    let faulty: Vec<u32> = classes[worst_class]
        .faulty
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x)
        .map(|(r, _)| r as u32)
        .collect();
    let pruned_dominance = class_states - explored;

    Ok(ExploreReport {
        version: REPORT_VERSION,
        n,
        f,
        xmax,
        seed: config.seed,
        pruning: !config.exhaustive,
        robot_groups: symmetry.members.len(),
        mask_count,
        mask_classes,
        collapsed_covers,
        intervals,
        raw_states,
        class_states,
        explored,
        pruned_dominance,
        subsampled: 0,
        raw_covered,
        exact_ratio: exact.ratio,
        matches_exact: value.to_bits() == exact.ratio.to_bits(),
        worst: WorstCase { value, target, faulty, enclosure_lo: lo_acc, enclosure_hi: hi_acc },
    })
}

/// Explores the paper's `A(n, f)` proportional fleet over the window
/// `[-xmax, -1] ∪ [1, xmax]` — the CLI entry point.
///
/// # Errors
///
/// Propagates parameter validation ([`Params::new`]), schedule design,
/// and [`explore_fleet`] failures.
pub fn explore_pair(
    n: usize,
    f: usize,
    xmax: f64,
    config: &ExploreConfig,
) -> Result<ExploreReport> {
    let params = Params::new(n, f)?;
    let alg = Algorithm::design(params)?;
    let horizon = alg.required_horizon(xmax * (1.0 + 1e-6))?;
    let fleet = Fleet::from_plans(&alg.plans(), horizon)?;
    explore_fleet(&fleet, f, xmax, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::TrajectoryBuilder;

    /// The Table 1 pairs with `n <= 5`.
    pub const SMALL_PAIRS: [(usize, usize); 8] =
        [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)];

    #[test]
    fn frontier_enumerates_each_class_once() {
        let caps = [2usize, 1, 3];
        let classes = frontier_classes(&caps, 3);
        assert_eq!(classes.len(), class_space_size(&caps, 3));
        let mut sorted = classes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), classes.len(), "no duplicates");
        assert!(classes.iter().all(|c| c.iter().map(|&x| x as usize).sum::<usize>() <= 3
            && c.iter().zip(&caps).all(|(&x, &cap)| x as usize <= cap)));
    }

    #[test]
    fn counting_helpers_match_closed_forms() {
        assert_eq!(mask_space_size(5, 2), 16);
        assert_eq!(mask_space_size(4, 4), 16);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        // Singleton groups: classes are exactly the masks.
        assert_eq!(class_space_size(&[1, 1, 1, 1, 1], 2), 16);
    }

    #[test]
    fn pruned_and_exhaustive_agree_bitwise_with_the_exact_scan() {
        for &(n, f) in &SMALL_PAIRS {
            let pruned = explore_pair(n, f, 25.0, &ExploreConfig::default()).unwrap();
            let exhaustive = explore_pair(
                n,
                f,
                25.0,
                &ExploreConfig { exhaustive: true, ..ExploreConfig::default() },
            )
            .unwrap();
            assert_eq!(
                pruned.worst.value.to_bits(),
                exhaustive.worst.value.to_bits(),
                "(n = {n}, f = {f}): pruning changed the worst value"
            );
            assert!(pruned.matches_exact, "(n = {n}, f = {f}): pruned vs exact scan");
            assert!(exhaustive.matches_exact, "(n = {n}, f = {f}): exhaustive vs exact scan");
            assert!(
                pruned.explored < exhaustive.explored,
                "(n = {n}, f = {f}): pruning must visit strictly fewer states"
            );
            for r in [&pruned, &exhaustive] {
                assert_eq!(r.explored + r.pruned_dominance, r.class_states);
                assert_eq!(r.subsampled, 0);
                assert!(r.worst.enclosure_lo <= r.worst.value);
                assert!(r.worst.value <= r.worst.enclosure_hi);
            }
            assert!(
                pruned.raw_cut_fraction() >= 0.30,
                "(n = {n}, f = {f}): only {} of raw states cut",
                pruned.raw_cut_fraction()
            );
        }
    }

    #[test]
    fn enclosures_agree_with_the_enclosed_scan_bitwise() {
        for &(n, f) in &[(3usize, 1usize), (4, 2), (5, 3)] {
            let params = Params::new(n, f).unwrap();
            let alg = Algorithm::design(params).unwrap();
            let horizon = alg.required_horizon(25.0 * (1.0 + 1e-6)).unwrap();
            let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
            let report = explore_fleet(&fleet, f, 25.0, &ExploreConfig::default()).unwrap();
            let enclosed =
                faultline_analysis::exact_supremum_enclosed(&fleet, f + 1, 25.0).unwrap();
            assert_eq!(
                report.worst.enclosure_lo.to_bits(),
                enclosed.enclosure.lo().to_bits(),
                "(n = {n}, f = {f}): enclosure lower bounds diverge"
            );
            assert_eq!(
                report.worst.enclosure_hi.to_bits(),
                enclosed.enclosure.hi().to_bits(),
                "(n = {n}, f = {f}): enclosure upper bounds diverge"
            );
        }
    }

    #[test]
    fn a_crossing_supremum_is_explored_and_enclosed() {
        use faultline_core::{PiecewiseTrajectory, SpaceTime};
        // A dashes to 1 at speed 3 and crawls outward at speed 1/2; B
        // leaves the origin at t = 1. T_1 switches from A to B where
        // they cross, at x = 8/3, and K peaks there at 11/8; C and D
        // mirror them. Explore and the enclosure both need the scan's
        // crossing candidate to reach the supremum.
        let a = PiecewiseTrajectory::with_speed_limit(
            vec![
                SpaceTime::origin(),
                SpaceTime::new(1.0, 1.0 / 3.0),
                SpaceTime::new(4.0, 1.0 / 3.0 + 6.0),
                SpaceTime::new(-4.0, 1.0 / 3.0 + 14.0),
            ],
            3.0,
        )
        .unwrap();
        let b = PiecewiseTrajectory::new(vec![
            SpaceTime::origin(),
            SpaceTime::new(0.0, 1.0),
            SpaceTime::new(5.0, 6.0),
            SpaceTime::new(-5.0, 16.0),
        ])
        .unwrap();
        let mirror = faultline_core::exact::mirrored(&[a.clone(), b.clone()]).unwrap();
        let fleet = Fleet::new(vec![a, b, mirror[0].clone(), mirror[1].clone()]).unwrap();
        let report = explore_fleet(&fleet, 0, 3.5, &ExploreConfig::default()).unwrap();
        assert!(report.matches_exact);
        assert!((report.worst.target - 8.0 / 3.0).abs() < 1e-12, "{}", report.worst.target);
        let enclosed = faultline_analysis::exact_supremum_enclosed(&fleet, 1, 3.5).unwrap();
        assert!(enclosed.enclosure.width() <= 1e-9 * report.worst.value);
        assert_eq!(report.worst.enclosure_lo.to_bits(), enclosed.enclosure.lo().to_bits());
        assert_eq!(report.worst.enclosure_hi.to_bits(), enclosed.enclosure.hi().to_bits());
    }

    #[test]
    fn symmetry_and_cover_collapse_merge_equivalent_robots() {
        // Two right sweepers (reaching 5 and 6 — identical inside the
        // window [1, 4] and over its beyond limit), two left mirrors,
        // and one robot that never reaches the window at all.
        let t = |to: f64| TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap();
        let fleet = Fleet::new(vec![t(5.0), t(6.0), t(-5.0), t(-6.0), t(0.5)]).unwrap();
        let report = explore_fleet(&fleet, 1, 4.0, &ExploreConfig::default()).unwrap();
        assert_eq!(report.robot_groups, 3, "right pair, left pair, invisible singleton");
        // Frontier classes: {}, {right}, {left}, {invisible}.
        assert_eq!(report.mask_classes, 4);
        assert_eq!(report.collapsed_covers, 1, "faulting the invisible robot = empty mask");
        assert_eq!(report.mask_count, 6);
        assert!(report.matches_exact);
        assert_eq!(report.explored + report.pruned_dominance, report.class_states);
    }

    #[test]
    fn budget_overflow_is_a_hard_error_not_a_subsample() {
        let config = ExploreConfig { budget: Some(2), ..ExploreConfig::default() };
        let err = explore_pair(4, 2, 10.0, &config).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("budget"), "{message}");
        // The diagnostic is actionable: it names the budget that would
        // suffice and the (n, f) pair it was computed for.
        assert!(message.contains("need budget >= "), "{message}");
        assert!(message.contains("(n = 4, f = 2)"), "{message}");
    }

    #[test]
    fn a_class_space_past_the_budget_is_refused_before_any_table_is_built() {
        // A(201, 100)'s class space saturates `usize`; its tables alone
        // would cost far longer than this refusal.
        let err = explore_pair(201, 100, 3.0, &ExploreConfig::default()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("class space of"), "{message}");
        assert!(message.contains("exceeds the exploration budget"), "{message}");
        assert!(message.contains("(n = 201, f = 100)"), "{message}");
    }

    #[test]
    fn uncovered_windows_are_rejected() {
        // One right ray cannot cover the negative side.
        let right = TrajectoryBuilder::from_origin().sweep_to(9.0).finish().unwrap();
        let fleet = Fleet::new(vec![right]).unwrap();
        assert!(explore_fleet(&fleet, 0, 5.0, &ExploreConfig::default()).is_err());
    }

    #[test]
    fn rejects_fault_budgets_of_the_whole_fleet() {
        let t = |to: f64| TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap();
        let fleet = Fleet::new(vec![t(9.0), t(-9.0)]).unwrap();
        assert!(explore_fleet(&fleet, 2, 5.0, &ExploreConfig::default()).is_err());
    }

    #[test]
    fn reports_are_byte_identical_across_thread_counts() {
        // The engine runs on its caller's thread and shares no state:
        // a report is the same bytes whether one thread explores alone
        // or three explore at once.
        let run = || {
            let report = explore_pair(4, 2, 18.0, &ExploreConfig::default()).unwrap();
            format!("{}\n{}", report.csv_row(), report.to_json().unwrap())
        };
        let alone = run();
        let together: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3).map(|_| scope.spawn(run)).collect();
            handles.into_iter().map(|handle| handle.join().unwrap()).collect()
        });
        assert!(together.iter().all(|report| *report == alone));
    }
}
