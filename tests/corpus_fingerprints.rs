//! The byte-identity gate, pinned: every committed corpus seed replays to
//! a committed trace fingerprint.
//!
//! * each `tests/corpus/distilled/distilled-<fp>.seed` replays to the
//!   fingerprint in its own file name;
//! * each hand-written `tests/corpus/<name>.seed` replays to its line
//!   (`name fp`, sorted) in `tests/corpus/FINGERPRINTS.txt`.
//!
//! A change that is not meant to alter simulated behaviour must leave this
//! test green untouched. A deliberate fingerprint change re-pins the
//! manifest (and renames the distilled seeds) in the same reviewed diff:
//! `chaos --replay tests/corpus` prints the `name: ok (fp …)` lines the
//! manifest is cut from, and CI's `chaos-smoke` job holds that CLI output
//! to the same file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use demos_chaos::{run, RunConfig, Scenario};

/// `(file stem, replayed fingerprint)` of every `*.seed` in `dir`, sorted.
fn replay_dir(dir: &Path) -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seed"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("readable corpus file");
            let sc =
                Scenario::from_corpus(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let report = run(&sc, &RunConfig::default());
            assert!(report.passed(), "{}: {:?}", p.display(), report.violation);
            let stem = p.file_stem().expect("seed file has a stem");
            (
                stem.to_string_lossy().into_owned(),
                format!("{:016x}", report.fingerprint),
            )
        })
        .collect()
}

#[test]
fn distilled_seeds_replay_to_the_fingerprint_in_their_name() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/distilled");
    let replayed = replay_dir(&dir);
    assert!(replayed.len() >= 43, "the distilled corpus is all there");
    for (stem, fp) in replayed {
        assert_eq!(
            stem,
            format!("distilled-{fp}"),
            "{stem}.seed no longer replays to the fingerprint it is named after"
        );
    }
}

#[test]
fn handwritten_seeds_replay_to_the_manifest() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let manifest = std::fs::read_to_string(dir.join("FINGERPRINTS.txt")).expect("manifest exists");
    let pinned: BTreeMap<String, String> = manifest
        .lines()
        .map(|l| {
            let (name, fp) = l.split_once(' ').expect("manifest line is `name fp`");
            (name.to_string(), fp.to_string())
        })
        .collect();
    assert!(
        manifest.lines().is_sorted() && pinned.len() == manifest.lines().count(),
        "the manifest is sorted, one line per seed"
    );
    let replayed: BTreeMap<String, String> = replay_dir(&dir).into_iter().collect();
    assert!(replayed.len() >= 16, "the hand-written corpus is all there");
    // Compared as whole maps, so a seed without a line and a line without
    // a seed both fail, and the diff names every moved fingerprint at once.
    assert_eq!(
        replayed, pinned,
        "replayed (left) vs FINGERPRINTS.txt (right)"
    );
}
