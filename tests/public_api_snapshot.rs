//! Public-surface snapshot.
//!
//! `tests/public_api.txt` is the sorted, committed list of every item the
//! crate roots re-export with `pub use` (`src/lib.rs`, `crates/geom/src/lib.rs`,
//! `crates/serve/src/lib.rs`), one `<file> <path>` line each. The test
//! parses the sources and compares, so adding or removing an exported
//! item shows up in the diff of that list and has to be made on purpose.
//! Inherent methods are not `pub use` items, so the typed query and
//! instantiate entry points are checked by name in their source files.

use std::path::Path;

/// The crate roots whose `pub use` surface is pinned.
const ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/geom/src/lib.rs",
    "crates/serve/src/lib.rs",
];

/// The committed snapshot, relative to the repository root.
const SNAPSHOT: &str = "tests/public_api.txt";

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `pub use` item of `source`, one entry per exported name, with
/// brace groups expanded (`a::{B, C}` becomes `a::B` and `a::C`).
fn pub_use_items(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut rest = source;
    while let Some(at) = rest.find("pub use ") {
        let after = &rest[at + "pub use ".len()..];
        let end = after.find(';').expect("`pub use` ends with `;`");
        let statement: String = after[..end]
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        match statement.split_once("::{") {
            Some((prefix, group)) => {
                let group = group
                    .strip_suffix('}')
                    .expect("one brace group per `pub use`");
                assert!(!group.contains('{'), "nested brace groups: `{statement}`");
                items.extend(
                    group
                        .split(',')
                        .map(str::trim)
                        .filter(|item| !item.is_empty())
                        .map(|item| format!("{prefix}::{item}")),
                );
            }
            None => items.push(statement),
        }
        rest = &after[end..];
    }
    items
}

#[test]
fn public_use_surface_matches_snapshot() {
    let mut actual: Vec<String> = ROOTS
        .iter()
        .flat_map(|file| {
            let source = std::fs::read_to_string(repo_root().join(file))
                .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
            pub_use_items(&source)
                .into_iter()
                .map(move |item| format!("{file} {item}"))
        })
        .collect();
    actual.sort();
    let committed = std::fs::read_to_string(repo_root().join(SNAPSHOT))
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT}: {e}"));
    let expected: Vec<&str> = committed.lines().collect();
    assert_eq!(
        actual,
        expected,
        "the `pub use` surface changed; if that is intended, replace {SNAPSHOT} with:\n{}\n",
        actual.join("\n")
    );
}

/// (source file, typed entry point) — the typed query and instantiate
/// methods that replaced the removed raw-slice `*_pairs` shims.
const TYPED_METHODS: &[(&str, &str)] = &[
    ("crates/core/src/structure.rs", "fn query"),
    ("crates/core/src/structure.rs", "fn query_with_scratch"),
    ("crates/core/src/structure.rs", "fn query_batch"),
    ("crates/core/src/structure.rs", "fn instantiate"),
    ("crates/core/src/structure.rs", "fn instantiate_or_fallback"),
    ("crates/core/src/structure.rs", "fn instantiate_compacted"),
    (
        "crates/core/src/structure.rs",
        "fn instantiate_compacted_or_fallback",
    ),
    ("crates/core/src/compiled.rs", "fn query"),
    ("crates/core/src/compiled.rs", "fn query_with_scratch"),
];

#[test]
fn typed_replacements_exist() {
    for &(file, method) in TYPED_METHODS {
        let source = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(&format!("pub {method}(")),
            "{file}: typed method `{method}` is missing"
        );
    }
}

/// The facade types the README/migration table promise must stay
/// exported from the umbrella crate root & api module.
#[test]
fn facade_surface_is_exported() {
    let lib = std::fs::read_to_string(repo_root().join("src/lib.rs")).unwrap();
    for needle in [
        "pub mod api",
        "pub use mps_geom::{dims, Coord, Dims, DimsError}",
    ] {
        assert!(lib.contains(needle), "src/lib.rs lost `{needle}`");
    }
    let api = std::fs::read_to_string(repo_root().join("src/api/mod.rs")).unwrap();
    for needle in ["MpsError", "QueryError", "Workspace", "StructureHandle"] {
        assert!(api.contains(needle), "src/api/mod.rs lost `{needle}`");
    }
}
