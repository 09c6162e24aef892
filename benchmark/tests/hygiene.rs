//! The benchmark stays a package of its own that builds the kernels as
//! shipped and touches the system through one module.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `[header]` table of a manifest, as its non-empty, non-comment lines.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_is_the_roots() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "root manifest lost its [profile.release]");
    assert_eq!(table(&read("Cargo.toml"), "[profile.release]"), root);
}

#[test]
fn the_package_is_its_own_workspace() {
    let manifest = read("Cargo.toml");
    assert!(manifest.lines().any(|l| l.trim() == "[workspace]"));
    let root = read("../Cargo.toml");
    assert!(
        !root.contains("benchmark"),
        "the root manifest must not know the benchmark"
    );
    assert!(read(".cargo/config.toml").contains("target-dir = \"../target\""));
}

#[test]
fn only_the_adapter_names_the_system_and_nothing_is_unsafe() {
    for file in ["src/lib.rs", "src/main.rs"] {
        assert!(read(file).contains("#![forbid(unsafe_code)]"), "{file}");
    }
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name == "sut.rs" {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "mlcnn_tensor",
            "mlcnn_nn",
            "mlcnn_quant",
            "mlcnn_core",
            "mlcnn_check",
            "mlcnn_registry",
            "mlcnn_sched",
            "mlcnn_serve",
            "mlcnn_net",
        ] {
            assert!(
                !text.contains(needle),
                "{name} names {needle}; go through sut.rs"
            );
        }
    }
}
