//! Source-audit gate: enumerates every scrutiny-worthy site in the
//! workspace's own sources (vendored dependencies excluded) and fails
//! unless each carries its adjacent justification comment — `// SAFETY:`
//! for `unsafe` / `static mut` / `transmute`, `// ALLOW:` for
//! `#[allow(clippy::…)]` lint opt-outs.
//!
//! The expected steady state is documented in DESIGN.md's unsafe-code
//! policy: the only `unsafe` is the allocator code (obskit's tracking
//! allocator and the `obs_overhead` timing loop that calls the
//! allocators directly); `transmute` and `static mut` stay at zero;
//! every clippy opt-out states its reason.
//! Run from CI as `cargo run -p bench --bin unsafe_audit`.

// ALLOW: binary entrypoint — panicking on a broken workspace layout is the gate.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bench::audit::{audit_tree, per_crate_counts, SiteKind};
use bench::{table, BenchCli};
use std::path::Path;

fn main() {
    let cli = BenchCli::parse("unsafe_audit");
    // bench lives at <workspace>/crates/bench; audit the whole checkout.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root");
    let sites = match audit_tree(root) {
        Ok(sites) => sites,
        Err(e) => panic!("audit walk failed under {}: {e}", root.display()),
    };

    let kinds = [
        SiteKind::Unsafe,
        SiteKind::StaticMut,
        SiteKind::Transmute,
        SiteKind::ClippyAllow,
    ];

    // Per-crate summary: one row per crate, one (total/undocumented)
    // column per kind.
    let counts = per_crate_counts(&sites);
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(krate, by_kind)| {
            let mut row = vec![krate.clone()];
            for kind in kinds {
                let (total, undoc) = by_kind.get(&kind).copied().unwrap_or((0, 0));
                row.push(if undoc > 0 {
                    format!("{total} ({undoc} undoc)")
                } else {
                    total.to_string()
                });
            }
            row
        })
        .collect();
    println!(
        "{}",
        table(
            "audited sites per crate",
            &["crate", "unsafe", "static-mut", "transmute", "clippy-allow"],
            &rows,
        )
    );

    // Detail table for the riskier kinds (unsafe/static-mut/transmute
    // are rare enough to list exhaustively; clippy allows only when
    // undocumented).
    let detail: Vec<Vec<String>> = sites
        .iter()
        .filter(|s| s.kind != SiteKind::ClippyAllow || !s.documented)
        .map(|s| {
            vec![
                format!("{}:{}", s.file, s.line),
                s.kind.label().to_owned(),
                if s.documented {
                    "documented".to_owned()
                } else {
                    "UNDOCUMENTED".to_owned()
                },
            ]
        })
        .collect();
    println!("{}", table("sites", &["site", "kind", "status"], &detail));

    let undocumented: Vec<_> = sites.iter().filter(|s| !s.documented).collect();
    obskit::counter_add("unsafe_audit.sites", sites.len() as u64);
    obskit::counter_add("unsafe_audit.undocumented", undocumented.len() as u64);
    for kind in kinds {
        let n = sites.iter().filter(|s| s.kind == kind).count();
        obskit::counter_add(&format!("unsafe_audit.{}", kind.label()), n as u64);
    }
    cli.finish();

    assert!(
        undocumented.is_empty(),
        "undocumented audited site(s) — add the required justification \
         comment (`// SAFETY:` or `// ALLOW:`) on the same line or within \
         {} lines above each: {undocumented:?}",
        bench::audit::SAFETY_COMMENT_WINDOW
    );
    println!(
        "source audit: {} site(s) across {} crate(s), all documented",
        sites.len(),
        counts.len()
    );
}
