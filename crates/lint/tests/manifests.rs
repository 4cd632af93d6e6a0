//! The three manifests share one reader: its errors name the file they
//! come from, and a missing key is reported at its entry's header line.

use anr_lint::{lint_workspace, parse_capabilities, parse_models, LintOptions};
use std::fs;

/// A malformed manifest in a scratch workspace fails the run with an
/// error that names that manifest, once.
#[test]
fn manifest_errors_name_their_own_file() {
    let scratch = std::env::temp_dir().join(format!("anr-lint-manifests-{}", std::process::id()));
    fs::create_dir_all(scratch.join("crates/demo/src")).expect("scratch dirs");
    fs::write(
        scratch.join("crates/demo/src/lib.rs"),
        "#![forbid(unsafe_code)]\n#![deny(unreachable_pub)]\npub fn f() {}\n",
    )
    .expect("scratch lib.rs");
    let cases = [
        (
            "lint.capabilities.toml",
            "[[crate]]\nname = \"demo\"\neffects = [\"disk\"]\n",
            "lint.capabilities.toml:3: unknown effect `disk`",
        ),
        (
            "lint.models.toml",
            "[[protocol]]\nname = \"X\"\nmodel = \"PN\"\n",
            "lint.models.toml:3: unknown model class `PN`",
        ),
        (
            "lint.allow.toml",
            "[[allow]]\nrule = \"P1\"\nlines = 3\n",
            "lint.allow.toml:3: unknown key `lines`",
        ),
    ];
    for (file, text, want) in cases {
        fs::write(scratch.join(file), text).expect("scratch manifest");
        let err = lint_workspace(&LintOptions::at(&scratch)).expect_err("malformed manifest");
        assert_eq!(err.to_string(), want);
        fs::remove_file(scratch.join(file)).expect("scratch manifest cleanup");
    }
    fs::remove_dir_all(&scratch).expect("scratch cleanup");
}

/// An entry missing a key is reported at its own `[[…]]` header, not at
/// the next entry's header or the file's last line.
#[test]
fn missing_key_is_reported_at_its_entry_header() {
    let congest = "[[protocol]]\nname = \"X\"\ncrate = \"c\"\nmodel = \"CONGEST\"\n\
                   message = \"u32\"\nrounds = 8\nhook = \"h\"\n\n# no bits\n\n";
    assert_eq!(congest.lines().count(), 10);
    let err = parse_models(congest).expect_err("CONGEST without bits");
    assert_eq!(err.line, 1, "{err}");
    assert!(err.message.contains("missing `bits`"), "{err}");

    let caps = "[[crate]]\nname = \"a\"\n\n[[crate]]\nname = \"b\"\neffects = []\n";
    let err = parse_capabilities(caps).expect_err("entry without effects");
    assert_eq!(
        err.to_string(),
        "lint.capabilities.toml:1: [[crate]] entry missing `effects`"
    );

    let dup = "[[crate]]\nname = \"a\"\neffects = []\n[[crate]]\nname = \"a\"\neffects = []\n\n";
    let err = parse_capabilities(dup).expect_err("duplicate entry");
    assert_eq!(
        err.to_string(),
        "lint.capabilities.toml:4: duplicate [[crate]] entry for `a`"
    );
}
