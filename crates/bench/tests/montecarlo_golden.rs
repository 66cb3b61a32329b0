//! `repro montecarlo --seed=42` prints exactly the committed
//! `tests/data/montecarlo_seed42.txt`, at the default thread count and
//! at `FAULTLINE_THREADS=1`. The Bernoulli fault draws, the target
//! draws and the ratios they produce are pinned byte for byte, not only
//! the sweep's event count.

use std::path::Path;
use std::process::Command;

#[test]
fn montecarlo_seed_42_reproduces_its_golden_at_any_thread_count() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = std::fs::read_to_string(repo_root.join("tests/data/montecarlo_seed42.txt"))
        .expect("tests/data/montecarlo_seed42.txt");
    for threads in [None, Some("1")] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
        command.args(["montecarlo", "--seed=42"]).current_dir(&repo_root);
        if let Some(threads) = threads {
            command.env("FAULTLINE_THREADS", threads);
        }
        let output = command.output().expect("failed to spawn the repro binary");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        assert!(
            String::from_utf8_lossy(&output.stdout) == golden,
            "FAULTLINE_THREADS = {threads:?}: the Monte-Carlo output drifted from its golden"
        );
    }
}
