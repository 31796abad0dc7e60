//! Every shape of item and every `#[serde(..)]` attribute that occurs in
//! `crates/` must pass through the stand-in derive and come out with the
//! marker impls.

#![allow(dead_code)]

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn is_mean(risk: &Risk) -> bool {
    matches!(risk, Risk::Mean)
}

fn default_startup() -> usize {
    5
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
enum Risk {
    #[default]
    Mean,
    Cvar(f64),
}

// crates/core/src/distribution.rs
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "Vec<f64>", into = "Vec<f64>")]
struct Samples {
    values: Vec<f64>,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values }
    }
}

impl From<Samples> for Vec<f64> {
    fn from(s: Samples) -> Self {
        s.values
    }
}

// crates/core/src/metrics.rs
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MetricDef {
    name: String,
    #[serde(default, skip_serializing_if = "is_mean")]
    risk: Risk,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    extra: BTreeMap<String, f64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    // crates/nn/src/mlp.rs
    #[serde(skip)]
    scratch: Vec<u8>,
}

// crates/core/src/manifest.rs
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
#[serde(tag = "type", rename_all = "snake_case")]
enum PrunerSpec {
    #[default]
    None,
    Median {
        #[serde(default = "default_startup")]
        startup: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Direction {
    Minimize,
    Maximize,
}

// Shapes: tuple and unit structs, visibility, generics with bounds,
// defaults and lifetimes, where clauses.
#[derive(Serialize, Deserialize)]
pub(crate) struct Meters(pub f64);

#[derive(Serialize, Deserialize)]
pub struct Marker;

#[derive(Serialize, Deserialize)]
struct Tagged<T: Clone + Default, const N: usize = 2, U = u8>
where
    U: Copy,
{
    items: [T; N],
    other: U,
}

#[derive(Serialize)]
struct Borrowed<'a, T: 'a + ?Sized> {
    inner: &'a T,
}

fn assert_both<T: Serialize + DeserializeOwned>() {}
fn assert_serialize<T: Serialize>() {}

#[test]
fn every_item_gets_its_marker_impls() {
    assert_both::<Risk>();
    assert_both::<Samples>();
    assert_both::<MetricDef>();
    assert_both::<PrunerSpec>();
    assert_both::<Direction>();
    assert_both::<Meters>();
    assert_both::<Marker>();
    assert_both::<Tagged<u32, 3, i64>>();
    assert_serialize::<Borrowed<'static, str>>();
    // The attribute arguments are ignored, never evaluated.
    assert_eq!(default_startup(), 5);
    assert!(is_mean(&Risk::Mean));
}

/// The attribute forms this test compiles are the ones the tree uses.
/// Should a crate start using another, it must be added above — which is
/// the point: the list is checked against the sources.
#[test]
fn the_tree_uses_no_attribute_form_this_file_lacks() {
    let crates = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../crates");
    let known = ["default", "skip_serializing_if", "from", "into", "tag", "rename_all", "skip"];
    let mut stack = vec![std::path::PathBuf::from(crates)];
    let mut checked = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("crates/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source is UTF-8");
                for line in text.lines().map(str::trim).filter(|l| l.starts_with("#[serde(")) {
                    let inside = line.trim_start_matches("#[serde(").trim_end_matches(")]");
                    for argument in inside.split(',') {
                        let key = argument.split('=').next().unwrap_or("").trim();
                        assert!(
                            known.contains(&key),
                            "{}: serde attribute `{key}` is not covered by this test",
                            path.display()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 20, "only {checked} attributes found: is crates/ where this test expects?");
}
