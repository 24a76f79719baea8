//! Contiguous jointly-present segments across channels.
//!
//! Identification consumes runs where every input channel has data;
//! this module finds those runs.

use crate::Mask;

/// A maximal contiguous run of usable samples, `[start, end)` in grid
/// indices.
///
/// Segments are the intervals `i = 1..K` of the paper's piece-wise
/// least-squares objective (Eq. 4): within a segment every required
/// channel is present at every slot, so one-step regressor pairs
/// `(x(k), x(k+1))` can be formed at indices
/// `start .. end - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// First grid index of the run (inclusive).
    pub start: usize,
    /// One past the last grid index of the run (exclusive).
    pub end: usize,
}

impl Segment {
    /// Creates a segment; `start` must be strictly below `end`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end` (a zero-length segment is a logic
    /// error, not a data condition).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "segment must be non-empty: {start}..{end}");
        Segment { start, end }
    }

    /// Number of samples in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always `false`: segments are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-step transition pairs the segment yields for an
    /// order-`order` model (an order-`d` regressor consumes `d` lagged
    /// samples plus the one-step target).
    pub fn transition_count(&self, order: usize) -> usize {
        self.len().saturating_sub(order)
    }

    /// Iterates over grid indices in the segment.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }

    /// `true` when `i` lies inside the segment.
    pub fn contains(&self, i: usize) -> bool {
        (self.start..self.end).contains(&i)
    }
}

/// Extracts maximal contiguous true-runs of `mask` with at least
/// `min_len` samples.
///
/// # Example
///
/// ```
/// use thermal_timeseries::{segments_from_mask, Mask, Segment};
///
/// let mask = Mask::from_bits(vec![true, true, false, true, true, true]);
/// let segs = segments_from_mask(&mask, 3);
/// assert_eq!(segs, vec![Segment::new(3, 6)]);
/// ```
pub fn segments_from_mask(mask: &Mask, min_len: usize) -> Vec<Segment> {
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    let n = mask.len();
    for i in 0..=n {
        let selected = i < n && mask.get(i);
        match (selected, run_start) {
            (true, None) => run_start = Some(i),
            (false, Some(s)) => {
                if i - s >= min_len.max(1) {
                    out.push(Segment::new(s, i));
                }
                run_start = None;
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_basics() {
        let s = Segment::new(2, 5);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.transition_count(1), 2);
        assert_eq!(s.transition_count(2), 1);
        assert_eq!(s.transition_count(5), 0);
        assert!(s.contains(2) && s.contains(4) && !s.contains(5));
        let idx: Vec<usize> = s.indices().collect();
        assert_eq!(idx, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_segment_panics() {
        let _ = Segment::new(3, 3);
    }

    #[test]
    fn extraction_finds_all_runs() {
        let mask = Mask::from_bits(vec![
            true, false, true, true, false, false, true, true, true,
        ]);
        let segs = segments_from_mask(&mask, 1);
        assert_eq!(
            segs,
            vec![Segment::new(0, 1), Segment::new(2, 4), Segment::new(6, 9)]
        );
    }

    #[test]
    fn extraction_respects_min_len() {
        let mask = Mask::from_bits(vec![true, false, true, true, true, false, true, true]);
        assert_eq!(segments_from_mask(&mask, 3), vec![Segment::new(2, 5)]);
        assert_eq!(
            segments_from_mask(&mask, 2),
            vec![Segment::new(2, 5), Segment::new(6, 8)]
        );
    }

    #[test]
    fn extraction_handles_edges() {
        assert!(segments_from_mask(&Mask::from_bits(vec![]), 1).is_empty());
        assert!(segments_from_mask(&Mask::from_bits(vec![false; 4]), 1).is_empty());
        let all = Mask::from_bits(vec![true; 4]);
        assert_eq!(segments_from_mask(&all, 1), vec![Segment::new(0, 4)]);
        assert_eq!(segments_from_mask(&all, 5), vec![]);
        // min_len 0 behaves like 1.
        assert_eq!(segments_from_mask(&all, 0), vec![Segment::new(0, 4)]);
    }

    #[test]
    fn trailing_run_is_closed() {
        let mask = Mask::from_bits(vec![false, true, true]);
        assert_eq!(segments_from_mask(&mask, 1), vec![Segment::new(1, 3)]);
    }
}
