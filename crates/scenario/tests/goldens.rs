//! Byte-for-byte regression: every file under `examples/scenarios/`
//! runs through the document dispatcher to exactly the bytes committed
//! under `tests/data/scenarios/` (what `faultline scenario run` prints).

use std::path::Path;

use faultline_analysis::scenario::results_to_json;
use faultline_scenario::Document;

#[test]
fn example_scenarios_reproduce_their_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names: Vec<String> = std::fs::read_dir(root.join("examples/scenarios"))
        .expect("examples/scenarios")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 9, "one golden per example: {names:?}");
    for name in &names {
        let read = |dir: &str| {
            let path = root.join(dir).join(name);
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let results = Document::from_json(&read("examples/scenarios"))
            .and_then(|document| document.run())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let output = results_to_json(&results).unwrap() + "\n";
        assert!(output == read("tests/data/scenarios"), "{name} drifted from its golden");
    }
}
