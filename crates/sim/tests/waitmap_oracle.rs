//! Property tests pinning `WaitMap::wake_overlapping`'s boundary
//! semantics against a naive O(n) oracle: half-open overlap (adjacent
//! ranges do not touch), zero-length accesses overlap nothing, and
//! domains are fully isolated.

use proptest::prelude::*;
use scaledeep_sim::engine::{WaitMap, WaitRange};

/// The reference model: the documented semantics, written the slow
/// obvious way. `[a, a+al)` and `[b, b+bl)` overlap iff both are
/// non-empty and each starts before the other ends (saturating, like the
/// real table).
fn oracle_overlaps(a: u32, al: u32, b: u32, bl: u32) -> bool {
    al > 0 && bl > 0 && a < b.saturating_add(bl) && b < a.saturating_add(al)
}

/// Applies one wake to the naive model, returning the woken ids in
/// ascending order and removing all their entries.
fn oracle_wake(
    parked: &mut Vec<(usize, Vec<WaitRange>)>,
    domain: u16,
    addr: u32,
    len: u32,
) -> Vec<usize> {
    let mut woken: Vec<usize> = parked
        .iter()
        .filter(|(_, ranges)| {
            ranges
                .iter()
                .any(|&(d, start, l)| d == domain && oracle_overlaps(start, l, addr, len))
        })
        .map(|&(id, _)| id)
        .collect();
    woken.sort_unstable();
    parked.retain(|(id, _)| !woken.contains(id));
    woken
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    fn wake_overlapping_matches_naive_oracle(
        parks in prop::collection::vec(
            prop::collection::vec((0u16..3, 0u32..16, 0u32..4), 1..4),
            1..12,
        ),
        wakes in prop::collection::vec((0u16..3, 0u32..16, 0u32..4), 1..24),
    ) {
        let mut map = WaitMap::new();
        let mut model: Vec<(usize, Vec<WaitRange>)> = Vec::new();
        for (waiter, ranges) in parks.iter().enumerate() {
            map.park(waiter, ranges.iter().copied());
            model.push((waiter, ranges.clone()));
        }
        let mut buf = Vec::new();
        for &(domain, addr, len) in &wakes {
            let woken = map.wake_overlapping(domain, addr, len, &mut buf).to_vec();
            let expected = oracle_wake(&mut model, domain, addr, len);
            prop_assert_eq!(&woken, &expected, "wake({}, {}, {})", domain, addr, len);
            // A woken waiter loses all entries; the rest stay parked.
            for (waiter, _) in parks.iter().enumerate() {
                prop_assert_eq!(
                    map.is_parked(waiter),
                    model.iter().any(|&(id, _)| id == waiter),
                    "is_parked({}) after wake({}, {}, {})", waiter, domain, addr, len
                );
            }
        }
        prop_assert_eq!(map.waiter_count(), model.len());
    }
}

#[test]
fn adjacent_ranges_do_not_overlap() {
    let mut map = WaitMap::new();
    map.park(0, [(0u16, 0u32, 4u32)]); // [0, 4)
    map.park(1, [(0u16, 4u32, 4u32)]); // [4, 8)
    let mut woken = Vec::new();
    // Touching [4, 8) must not wake the [0, 4) waiter.
    assert_eq!(map.wake_overlapping(0, 4, 4, &mut woken), [1]);
    assert!(map.is_parked(0));
    // The shared boundary address wakes only the range it belongs to.
    map.park(1, [(0u16, 4u32, 4u32)]);
    assert_eq!(map.wake_overlapping(0, 3, 1, &mut woken), [0]);
    assert!(map.is_parked(1));
}

#[test]
fn zero_length_accesses_overlap_nothing() {
    let mut map = WaitMap::new();
    map.park(0, [(0u16, 0u32, 8u32)]);
    let mut woken = Vec::new();
    // A zero-length wake touches no bytes, even inside a parked range.
    assert!(map.wake_overlapping(0, 4, 0, &mut woken).is_empty());
    assert!(map.is_parked(0));
    // A zero-length parked entry covers no bytes, so nothing wakes it:
    // a wake sweeping the whole space picks up only the real range.
    map.park(1, [(0u16, 4u32, 0u32)]);
    assert_eq!(map.wake_overlapping(0, 0, 16, &mut woken), [0]);
    assert!(map.is_parked(1), "zero-length entry must stay parked");
}

#[test]
fn domains_are_isolated() {
    let mut map = WaitMap::new();
    map.park(0, [(0u16, 0u32, 8u32)]);
    map.park(1, [(1u16, 0u32, 8u32)]);
    let mut woken = Vec::new();
    assert!(map.wake_overlapping(2, 0, 8, &mut woken).is_empty());
    assert_eq!(map.wake_overlapping(1, 0, 8, &mut woken), [1]);
    assert!(map.is_parked(0));
    assert_eq!(map.wake_overlapping(0, 0, 8, &mut woken), [0]);
}
