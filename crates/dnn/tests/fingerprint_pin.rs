//! Pins `Network::fingerprint`: it hashes exactly the `Debug` rendering,
//! and that rendering is part of the on-disk artifact store's format (the
//! fingerprint feeds every compile's provenance key, which names stored
//! artifact files and the BENCH `provenance` field). A change to the
//! `Debug` shape of any graph type fails here before it silently
//! orphans every stored artifact.

use scaledeep_dnn::zoo;
use scaledeep_trace::{fnv1a, FNV1A_OFFSET};

fn all_zoo_nets() -> Vec<scaledeep_dnn::Network> {
    zoo::BENCHMARK_NAMES
        .iter()
        .chain(&["alexnet-func"])
        .map(|name| zoo::by_name(name).expect("zoo name"))
        .collect()
}

#[test]
fn fingerprint_is_fnv1a_of_the_debug_rendering() {
    let nets = all_zoo_nets();
    assert_eq!(nets.len(), 12);
    for net in &nets {
        let rendered = format!("{net:?}");
        assert_eq!(
            net.fingerprint(),
            fnv1a(FNV1A_OFFSET, rendered.bytes()),
            "{}",
            net.name()
        );
    }
}

#[test]
fn fingerprints_are_pinned() {
    assert_eq!(zoo::alexnet().fingerprint(), 0x3f17_b06c_71d5_2ffd);
    assert_eq!(zoo::googlenet().fingerprint(), 0xb289_a419_ef24_75e1);
}

#[test]
fn the_memo_never_shows_in_debug_or_equality() {
    for net in all_zoo_nets() {
        let before = format!("{net:?}");
        assert!(before.starts_with("Network { name: "), "{}", net.name());
        let fresh = net.clone();
        let fp = net.fingerprint();
        let filled = net.clone();
        assert_eq!(filled.fingerprint(), fp);
        assert_eq!(format!("{net:?}"), before, "{}", net.name());
        assert_eq!(format!("{filled:?}"), before, "{}", net.name());
        assert_eq!(filled, fresh, "{}", net.name());
        assert_eq!(filled, zoo::by_name(net.name()).unwrap(), "{}", net.name());
    }
}
