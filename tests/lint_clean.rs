//! The workspace is lint-clean: no `demos-lint` finding (D001–D010) and
//! no `lint:allow` that suppresses nothing — the check CI's `lint` job
//! gates, run where tier-1 sees it. It is also what notices a rule's path
//! table, or an allow, left pointing at a file that no longer exists.

use std::path::Path;

#[test]
fn workspace_is_clean() {
    let report = demos_lint::check_workspace(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace is readable");
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report.render()
    );
    assert!(report.checked_files > 50, "walk found the workspace");
}
