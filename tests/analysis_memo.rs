//! A network's analysis is memoized per element size
//! (`Network::analyze_with_elem_bytes`), and the memo is invisible: on
//! every benchmark network plus `alexnet-func`, at 4 and 2 bytes per
//! element, the memoized analysis equals a fresh computation, and
//! `Debug`, `==` and the fingerprint are what they are on a network whose
//! memo never filled, clones included. A clone shares the original's
//! memo: it returns the very same analyses and layer-name table.

use scaledeep_dnn::{zoo, Network};
use std::sync::Barrier;

const ELEM_BYTES: [u64; 2] = [4, 2];

fn nets() -> impl Iterator<Item = &'static str> {
    zoo::BENCHMARK_NAMES.into_iter().chain(["alexnet-func"])
}

fn build(name: &str) -> Network {
    zoo::by_name(name).unwrap_or_else(|| panic!("{name} is a zoo network"))
}

#[test]
fn analysis_memo_is_invisible() {
    for name in nets() {
        for order in [ELEM_BYTES, [ELEM_BYTES[1], ELEM_BYTES[0]]] {
            let net = build(name);
            let debug = format!("{net:?}");
            for e in order {
                let memo = net.analyze_with_elem_bytes(e);
                assert_eq!(memo.elem_bytes(), e, "{name}");
                assert!(
                    std::ptr::eq(memo, net.analyze_with_elem_bytes(e)),
                    "{name}: the second call at {e} B must return the memo"
                );
                assert_eq!(memo, build(name).analyze_with_elem_bytes(e), "{name}");
            }
            // The fingerprint is first hashed after the memo filled.
            let fresh = build(name);
            assert_eq!(format!("{net:?}"), debug, "{name}");
            assert_eq!(net, fresh, "{name}");
            assert_eq!(net.fingerprint(), fresh.fingerprint(), "{name}");

            let clone = net.clone();
            assert_eq!(clone, build(name), "{name}");
            assert_eq!(format!("{clone:?}"), debug, "{name}");
            assert_eq!(clone.fingerprint(), fresh.fingerprint(), "{name}");
            for e in ELEM_BYTES {
                assert_eq!(
                    clone.analyze_with_elem_bytes(e),
                    fresh.analyze_with_elem_bytes(e),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn concurrent_first_calls_each_get_their_own_size() {
    const SIZES: [u64; 6] = [4, 2, 4, 2, 1, 8];
    for name in ["alexnet", "googlenet"] {
        let net = build(name);
        // Every thread asks at once, so callers asking for different sizes
        // race for the same empty cell of the memo.
        let start = Barrier::new(SIZES.len());
        std::thread::scope(|s| {
            for e in SIZES {
                let (net, start) = (&net, &start);
                s.spawn(move || {
                    start.wait();
                    assert_eq!(net.analyze_with_elem_bytes(e).elem_bytes(), e, "{name}");
                });
            }
        });
        for e in SIZES {
            assert_eq!(
                net.analyze_with_elem_bytes(e),
                build(name).analyze_with_elem_bytes(e),
                "{name} at {e} B"
            );
        }
    }
}

#[test]
fn a_clone_shares_its_memo() {
    for name in nets() {
        let net = build(name);
        let debug = format!("{net:?}");
        let analysis = net.analyze_with_elem_bytes(ELEM_BYTES[0]);
        let names = net.layer_names();
        let clone = net.clone();
        assert!(
            std::ptr::eq(analysis, clone.analyze_with_elem_bytes(ELEM_BYTES[0])),
            "{name}: a clone must return the original's analysis"
        );
        assert!(
            std::sync::Arc::ptr_eq(names, clone.layer_names()),
            "{name}: a clone must share the layer-name table"
        );
        // A memo filled through the clone is the original's too.
        assert!(
            std::ptr::eq(
                clone.analyze_with_elem_bytes(ELEM_BYTES[1]),
                net.analyze_with_elem_bytes(ELEM_BYTES[1])
            ),
            "{name}"
        );
        let fresh = build(name);
        assert_eq!(clone, net, "{name}");
        assert_eq!(clone, fresh, "{name}");
        assert_eq!(format!("{clone:?}"), debug, "{name}");
        assert_eq!(clone.fingerprint(), fresh.fingerprint(), "{name}");
        assert_eq!(net.fingerprint(), fresh.fingerprint(), "{name}");
    }
}
