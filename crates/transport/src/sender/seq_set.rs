//! The sender's sequence-number sets: one bit per sequence number in a
//! window of 64-bit words that slides with the cumulative point.
//!
//! Every set `WindowSender` keeps (`outstanding`, `sacked`, `nacked`) holds
//! sequence numbers above the cumulative point and below the next new
//! sequence number, so a bitmap over that stretch is dense.  Insert, remove
//! and membership are one word operation; dropping everything below the
//! cumulative point pops whole words off the front; the first member of a
//! range and ascending iteration scan words, not nodes.

use std::collections::VecDeque;
use std::ops::RangeInclusive;

/// A set of `u64` sequence numbers stored as a sliding bitmap.
///
/// `words[i]` holds sequence numbers `(base + i) * 64 .. (base + i + 1) * 64`.
/// While the set is non-empty its first word is non-zero (the base follows
/// the lowest member); an empty set holds no words and re-bases on its next
/// insert.
#[derive(Default)]
pub(crate) struct SeqSet {
    /// Word index (sequence number / 64) of `words[0]`.
    base: u64,
    words: VecDeque<u64>,
    len: usize,
}

/// Word index and bit of `seq`.
fn split(seq: u64) -> (u64, u32) {
    (seq >> 6, (seq & 63) as u32)
}

impl SeqSet {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of word `word` in `words`, if the window covers it.
    fn slot(&self, word: u64) -> Option<usize> {
        let i = word.checked_sub(self.base)?;
        (i < self.words.len() as u64).then_some(i as usize)
    }

    /// Whether `seq` is a member.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (word, bit) = split(seq);
        self.slot(word)
            .is_some_and(|i| self.words[i] & (1 << bit) != 0)
    }

    /// Add `seq`; returns whether it was new.  The window grows to cover
    /// `seq` on whichever side it lies.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let (word, bit) = split(seq);
        if self.words.is_empty() {
            self.base = word;
            self.words.push_back(0);
        } else if word < self.base {
            for _ in word..self.base {
                self.words.push_front(0);
            }
            self.base = word;
        } else {
            let end = self.base + self.words.len() as u64;
            for _ in end..=word {
                self.words.push_back(0);
            }
        }
        let w = &mut self.words[(word - self.base) as usize];
        let fresh = *w & (1 << bit) == 0;
        *w |= 1 << bit;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `seq`; returns whether it was a member.
    pub(crate) fn remove(&mut self, seq: u64) -> bool {
        let (word, bit) = split(seq);
        let Some(i) = self.slot(word) else {
            return false;
        };
        let present = self.words[i] & (1 << bit) != 0;
        self.words[i] &= !(1 << bit);
        self.len -= present as usize;
        self.trim_front();
        present
    }

    /// Remove every member below `floor` (what `BTreeSet::split_off(&floor)`
    /// keeps is what stays).  Whole words below `floor`'s word are popped.
    pub(crate) fn drop_below(&mut self, floor: u64) {
        let (word, bit) = split(floor);
        let whole = word.saturating_sub(self.base).min(self.words.len() as u64) as usize;
        for w in self.words.drain(..whole) {
            self.len -= w.count_ones() as usize;
        }
        self.base += whole as u64;
        if self.base == word {
            if let Some(front) = self.words.front_mut() {
                let below = *front & !(u64::MAX << bit);
                self.len -= below.count_ones() as usize;
                *front &= !below;
            }
        }
        self.trim_front();
    }

    /// Pop leading zero words so the base follows the lowest member.
    fn trim_front(&mut self) {
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 1;
        }
    }

    /// The lowest member in `range`, like `BTreeSet::range(range).next()`.
    pub(crate) fn first_in(&self, range: RangeInclusive<u64>) -> Option<u64> {
        let (lo, hi) = range.into_inner();
        let (lo_word, lo_bit) = split(lo);
        let (mut word, mut mask) = if lo_word < self.base {
            (self.base, u64::MAX)
        } else {
            (lo_word, u64::MAX << lo_bit)
        };
        while word <= hi >> 6 {
            let w = self.words[self.slot(word)?] & mask;
            if w != 0 {
                let seq = (word << 6) | w.trailing_zeros() as u64;
                return (seq <= hi).then_some(seq);
            }
            word += 1;
            mask = u64::MAX;
        }
        None
    }

    /// The lowest member, removed.
    pub(crate) fn pop_first(&mut self) -> Option<u64> {
        let front = *self.words.front()?;
        let seq = (self.base << 6) | front.trailing_zeros() as u64;
        self.remove(seq);
        Some(seq)
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(move |(i, &w)| {
            let word = (self.base + i as u64) << 6;
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as u64;
                    rest &= rest - 1;
                    word | bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::rng::SimRng;
    use std::collections::BTreeSet;

    /// How often each edge of the window was exercised.
    #[derive(Default, Debug)]
    struct Coverage {
        far_jumps: u32,
        below_base: u32,
        emptied_by_drop: u32,
        rebased: u32,
        range_hits: u32,
        range_misses: u32,
        removed: u32,
        contained: u32,
        peak_len: usize,
    }

    /// A sequence number around `cursor`: mostly near it, sometimes a jump
    /// many words ahead (which moves the cursor) or many words behind.
    fn pick(rng: &mut SimRng, cursor: &mut u64) -> u64 {
        match rng.index(10) {
            0 => {
                *cursor += 64 * (8 + rng.index(200)) as u64;
                *cursor
            }
            1 => cursor.saturating_sub(64 * (1 + rng.index(30)) as u64 + rng.index(64) as u64),
            _ => (*cursor + rng.index(256) as u64).saturating_sub(128),
        }
    }

    #[test]
    fn every_operation_matches_a_btreeset_over_random_streams() {
        let mut seen = Coverage::default();
        for seed in 0..300u64 {
            let mut rng = SimRng::new(seed);
            let mut cursor = rng.index(1 << 20) as u64;
            let mut set = SeqSet::default();
            let mut reference = BTreeSet::new();
            let mut emptied_from = None;
            for _ in 0..400 {
                let seq = pick(&mut rng, &mut cursor);
                match rng.index(8) {
                    0..=2 => {
                        if let Some(old_base) = emptied_from.take() {
                            seen.rebased += (seq >> 6 != old_base) as u32;
                        }
                        if !set.is_empty() {
                            let end = set.base + set.words.len() as u64;
                            seen.far_jumps += (seq >> 6 >= end + 8) as u32;
                            seen.below_base += (seq >> 6 < set.base) as u32;
                        }
                        // Sometimes a run, as a burst of new data makes one.
                        let run = if rng.coin(0.1) { 1 + rng.index(300) } else { 1 };
                        for s in seq..seq + run as u64 {
                            assert_eq!(set.insert(s), reference.insert(s), "insert {s}");
                        }
                        seen.peak_len = seen.peak_len.max(set.len());
                    }
                    3 => {
                        // Half the time the member at or above `seq`.
                        let seq = match reference.range(seq..).next() {
                            Some(&member) if rng.coin(0.5) => member,
                            _ => seq,
                        };
                        let removed = reference.remove(&seq);
                        seen.removed += removed as u32;
                        assert_eq!(set.remove(seq), removed, "remove {seq}");
                    }
                    4 => {
                        let floor = if rng.coin(0.2) {
                            reference
                                .last()
                                .map_or(seq, |&max| max + 1 + rng.index(500) as u64)
                        } else {
                            seq
                        };
                        let (was_empty, base) = (set.is_empty(), set.base);
                        set.drop_below(floor);
                        reference = reference.split_off(&floor);
                        if !was_empty && set.is_empty() {
                            seen.emptied_by_drop += 1;
                            emptied_from = Some(base);
                        }
                    }
                    5 => {
                        let hi = seq + rng.index(64 * 6) as u64;
                        let expected = reference.range(seq..=hi).next().copied();
                        seen.range_hits += expected.is_some() as u32;
                        seen.range_misses += expected.is_none() as u32;
                        assert_eq!(set.first_in(seq..=hi), expected, "first in {seq}..={hi}");
                    }
                    6 => {
                        let expected = reference.pop_first();
                        assert_eq!(set.pop_first(), expected);
                    }
                    _ => {
                        assert!(set.iter().eq(reference.iter().copied()), "seed {seed}");
                    }
                }
                let contained = reference.contains(&seq);
                seen.contained += contained as u32;
                assert_eq!(set.contains(seq), contained, "contains {seq}");
                assert_eq!(set.len(), reference.len(), "seed {seed}");
                assert_eq!(
                    set.is_empty(),
                    set.words.is_empty(),
                    "an empty set holds no words"
                );
                assert_ne!(
                    set.words.front(),
                    Some(&0),
                    "the base follows the lowest member"
                );
            }
            assert!(set.iter().eq(reference.iter().copied()), "seed {seed}");
        }
        let floors = [
            (seen.far_jumps, 3000),
            (seen.below_base, 3000),
            (seen.emptied_by_drop, 3000),
            (seen.rebased, 2500),
            (seen.range_hits, 2500),
            (seen.range_misses, 4000),
            (seen.removed, 2000),
            (seen.contained, 20000),
            (seen.peak_len as u32, 500),
        ];
        assert!(floors.iter().all(|&(n, floor)| n >= floor), "{seen:?}");
    }

    #[test]
    fn the_top_of_the_sequence_space_is_a_member_like_any_other() {
        let mut set = SeqSet::default();
        assert!(set.insert(u64::MAX));
        assert!(set.insert(u64::MAX - 64));
        assert!(set.contains(u64::MAX));
        assert_eq!(set.first_in(0..=u64::MAX), Some(u64::MAX - 64));
        assert_eq!(set.first_in(u64::MAX - 63..=u64::MAX), Some(u64::MAX));
        assert_eq!(set.iter().collect::<Vec<_>>(), [u64::MAX - 64, u64::MAX]);
        set.drop_below(u64::MAX);
        assert_eq!(set.iter().collect::<Vec<_>>(), [u64::MAX]);
        assert_eq!(set.pop_first(), Some(u64::MAX));
        assert!(set.is_empty());
    }
}
