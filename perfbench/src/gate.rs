//! The correctness gate: digests of what the simulator produced, checked
//! against the digests pinned in `pins.txt` (for the default and the
//! held-out seed) and against the run's own first pass (for every seed).
//!
//! A failed check fails *points*: a CSV table's mismatch fails every point
//! the table is built from, a report's mismatch fails its own point.

use std::collections::HashMap;
use std::sync::OnceLock;

use vcoma::{codec, SimReport};
use vcoma_experiments::cache::fnv128_hex;

const PINS: &str = include_str!("../pins.txt");

/// Digest of an artifact's CSV text.
pub fn text_digest(text: &str) -> String {
    fnv128_hex(text)
}

/// Digest of a report: its `codec::encode` envelope under fixed
/// provenance strings, so it covers every simulated statistic and does
/// not move with the code fingerprint.
pub fn report_digest(report: &SimReport) -> String {
    fnv128_hex(&codec::encode(report, crate::SUITE, ""))
}

/// `(workload, seed, kind, label)` -> digest.
type PinMap = HashMap<(String, u64, String, String), &'static str>;

/// The pinned digest of `(workload, seed, kind, label)`, if that seed is
/// pinned. `kind` is `csv` (artifact table stem) or `point` (report).
pub fn pinned(workload: &str, seed: u64, kind: &str, label: &str) -> Option<&'static str> {
    static MAP: OnceLock<PinMap> = OnceLock::new();
    MAP.get_or_init(|| parse_pins(PINS))
        .get(&(
            workload.to_string(),
            seed,
            kind.to_string(),
            label.to_string(),
        ))
        .copied()
}

fn parse_pins(text: &'static str) -> PinMap {
    let mut map = HashMap::new();
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.splitn(5, ' ').collect();
        let [workload, seed, kind, digest, label] = f[..] else {
            panic!("malformed pins.txt line: {line}");
        };
        let seed = seed.parse().expect("pins.txt seed is an integer");
        map.insert(
            (
                workload.to_string(),
                seed,
                kind.to_string(),
                label.to_string(),
            ),
            digest,
        );
    }
    map
}

/// Formats one `pins.txt` line.
pub fn pin_line(workload: &str, seed: u64, kind: &str, label: &str, digest: &str) -> String {
    format!("{workload} {seed} {kind} {digest} {label}")
}

/// The points of one artifact pass whose CSV tables fail the gate.
///
/// `observed` and `expected` are `(table stem, digest)` lists. A table
/// whose stem names a benchmark (`fig8_radix`) covers that benchmark's
/// `schemes` points; any other table covers every point. A missing,
/// extra or differing table fails the points it covers.
pub fn csv_failures(
    observed: &[(String, String)],
    expected: &[(String, String)],
    benchmarks: &[&str],
    schemes: usize,
) -> Vec<bool> {
    let n = benchmarks.len() * schemes;
    let mut failed = vec![false; n];
    let covers = |stem: &str| -> std::ops::Range<usize> {
        match benchmarks
            .iter()
            .position(|b| stem.ends_with(&format!("_{}", b.to_lowercase())))
        {
            Some(b) => b * schemes..(b + 1) * schemes,
            None => 0..n,
        }
    };
    let lookup = |list: &[(String, String)], stem: &str| {
        list.iter().find(|(s, _)| s == stem).map(|(_, d)| d.clone())
    };
    for (stem, digest) in observed {
        if lookup(expected, stem).as_ref() != Some(digest) {
            failed[covers(stem)].iter_mut().for_each(|f| *f = true);
        }
    }
    for (stem, _) in expected {
        if lookup(observed, stem).is_none() {
            failed[covers(stem)].iter_mut().for_each(|f| *f = true);
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHES: [&str; 3] = ["RADIX", "FFT", "FMM"];

    fn tables() -> Vec<(String, String)> {
        BENCHES
            .iter()
            .map(|b| {
                let stem = format!("fig8_{}", b.to_lowercase());
                let digest = text_digest(&format!("{b} csv body"));
                (stem, digest)
            })
            .collect()
    }

    #[test]
    fn matching_digests_fail_nothing() {
        let t = tables();
        assert!(csv_failures(&t, &t, &BENCHES, 6).iter().all(|f| !f));
    }

    #[test]
    fn a_wrong_panel_digest_fails_exactly_that_benchmarks_points() {
        let observed = tables();
        let mut expected = tables();
        expected[1].1 = text_digest("a different FFT table");
        let failed = csv_failures(&observed, &expected, &BENCHES, 6);
        let idx: Vec<usize> = (0..failed.len()).filter(|&i| failed[i]).collect();
        assert_eq!(idx, (6..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_wrong_whole_table_digest_fails_every_point() {
        let observed = vec![("table5".to_string(), text_digest("rows"))];
        let expected = vec![("table5".to_string(), text_digest("other rows"))];
        let failed = csv_failures(&observed, &expected, &BENCHES, 8);
        assert_eq!(failed.iter().filter(|&&f| f).count(), 24);
    }

    #[test]
    fn a_missing_table_fails_its_points() {
        let observed = tables()[..2].to_vec();
        let failed = csv_failures(&observed, &tables(), &BENCHES, 2);
        assert_eq!(failed, [false, false, false, false, true, true]);
    }

    #[test]
    fn pins_file_parses_and_covers_both_pinned_seeds() {
        let map = parse_pins(PINS);
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            for w in ["fig8_shadow_tlb", "store_resume"] {
                for kind in ["csv", "point"] {
                    assert!(
                        map.keys()
                            .any(|(mw, ms, mk, _)| mw == w && *ms == seed && mk == kind),
                        "no {kind} pins for {w} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn pin_lines_round_trip() {
        let line = pin_line("fig8_shadow_tlb", 7, "point", "RADIX/L0-TLB", "abc123");
        let map = parse_pins(Box::leak(line.into_boxed_str()));
        let key = (
            "fig8_shadow_tlb".to_string(),
            7,
            "point".to_string(),
            "RADIX/L0-TLB".to_string(),
        );
        assert_eq!(map.get(&key), Some(&"abc123"));
    }
}
