//! The closed-form `/v1/cr` tier, filled on first use.
//!
//! Thm-1 CR and `alpha(n)` are pure math, so the body of a `(n, f)`
//! point never changes once serialized. The lattice up to a configured
//! `n` is indexed by arithmetic: row `n` holds one point per `f < n`.
//! Start-up allocates only the row slots; the first `get(n, _)`
//! allocates row `n`, and the first `get(n, f)` serializes that point
//! once through [`crate::handlers::cr_body`], the same serializer the
//! request path uses, so the tiers are byte-identical by construction.
//! From then on `GET /v1/cr` at that point is two atomic loads and an
//! `Arc` clone on the event loop: no hashing, no lock, no cache, no
//! pool.

use std::sync::{Arc, OnceLock};

use faultline_core::CrQuery;

use crate::handlers;

/// One lattice point: unset until first asked for, then its body, or
/// `None` for a pair the closed forms reject.
type Point = OnceLock<Option<Arc<[u8]>>>;

/// `/v1/cr` response bodies for every `(n, f)` with `1 <= n <= max_n`
/// and `0 <= f < n`, each serialized when first asked for.
pub struct CrMemo {
    /// `rows[n - 1]` holds row `n`'s `n` points once it is allocated.
    rows: Box<[OnceLock<Box<[Point]>>]>,
}

impl CrMemo {
    /// An unfilled lattice for `1 <= n <= max_n`: one empty row slot
    /// per `n`, no row and no body. `max_n = 0` disables the tier.
    #[must_use]
    pub fn build(max_n: usize) -> CrMemo {
        CrMemo { rows: (0..max_n).map(|_| OnceLock::new()).collect() }
    }

    /// The response body for `(n, f)`, if the pair is in range and the
    /// closed forms accept it. The first call for a point serializes
    /// it; callers racing on that first call serialize it once and
    /// share one `Arc`. A pair out of range allocates nothing.
    #[must_use]
    pub fn get(&self, n: usize, f: usize) -> Option<Arc<[u8]>> {
        if f >= n {
            return None;
        }
        // `f < n`, so `n >= 1`.
        let row = self.rows.get(n - 1)?.get_or_init(|| (0..n).map(|_| OnceLock::new()).collect());
        row[f].get_or_init(|| handlers::cr_body(&CrQuery { n, f }).ok().map(Arc::from)).clone()
    }
}

#[cfg(test)]
impl CrMemo {
    /// The number of points serialized so far.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|row| row.iter())
            .filter(|point| matches!(point.get(), Some(Some(_))))
            .count()
    }

    /// Whether no point has been serialized yet; always, with the tier
    /// disabled.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::thread;

    use super::*;

    impl CrMemo {
        /// The number of rows allocated so far.
        fn rows_allocated(&self) -> usize {
            self.rows.iter().filter(|row| row.get().is_some()).count()
        }
    }

    #[test]
    fn a_fresh_lattice_holds_no_row_and_no_body() {
        let memo = CrMemo::build(64);
        assert_eq!(memo.rows_allocated(), 0);
        assert_eq!(memo.len(), 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn one_get_fills_exactly_that_point() {
        let memo = CrMemo::build(64);
        assert!(memo.get(11, 4).is_some());
        assert_eq!(memo.rows_allocated(), 1);
        assert_eq!(memo.len(), 1);
        let row = memo.rows[10].get().expect("row 11 is allocated");
        let filled: Vec<usize> = (0..11).filter(|&f| row[f].get().is_some()).collect();
        assert_eq!(filled, [4]);
        // Asking again serves the stored body.
        assert!(Arc::ptr_eq(&memo.get(11, 4).unwrap(), &memo.get(11, 4).unwrap()));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memoized_bodies_match_the_request_path_bitwise() {
        let memo = CrMemo::build(64);
        for n in 1..=64usize {
            for f in 0..n {
                let fresh = handlers::cr_body(&CrQuery { n, f }).unwrap();
                let memoized = memo.get(n, f).unwrap();
                assert_eq!(
                    &*memoized,
                    fresh.as_slice(),
                    "memo and request path disagree at ({n}, {f})"
                );
            }
        }
        assert_eq!(memo.rows_allocated(), 64);
        assert_eq!(memo.len(), 64 * 65 / 2);
    }

    #[test]
    fn racing_first_requests_serialize_one_body() {
        let memo = CrMemo::build(64);
        let start = Barrier::new(2);
        let bodies: Vec<Arc<[u8]>> = thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get(41, 20).expect("(41, 20) is in range")
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().expect("a racer panicked")).collect()
        });
        assert!(Arc::ptr_eq(&bodies[0], &bodies[1]), "one body, shared");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn lattice_covers_every_valid_pair() {
        let memo = CrMemo::build(8);
        // Out of range: `n = 0`, `n > max_n`, `f >= n`. None allocates a row.
        for (n, f) in [(0, 0), (0, usize::MAX), (9, 0), (usize::MAX, 0), (3, 3), (3, 7)] {
            assert!(memo.get(n, f).is_none(), "({n}, {f})");
        }
        assert_eq!(memo.rows_allocated(), 0);
        // The corners of the lattice are in it.
        for (n, f) in [(1, 0), (8, 0), (8, 7)] {
            assert!(memo.get(n, f).is_some(), "({n}, {f})");
        }
        assert_eq!(memo.rows_allocated(), 2);
    }

    #[test]
    fn zero_disables_the_tier() {
        let memo = CrMemo::build(0);
        assert!(memo.get(3, 1).is_none());
        assert!(memo.is_empty());
        assert_eq!(memo.rows_allocated(), 0);
    }
}
