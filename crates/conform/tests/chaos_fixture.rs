//! The chaos matrices reproduce their recorded cells: every label, cell
//! order, counter and verdict in `fixtures/chaos_cells.txt`. A row
//! recorded as `FAIL` must now pass; its counters are not pinned.

use parapage_conform::{chaos_matrices, CellFilter};
use parapage_core::ModelParams;

/// One recorded run: its parameters line and its rows.
struct Recorded {
    header: String,
    rows: Vec<String>,
}

fn recorded() -> Vec<Recorded> {
    let mut runs: Vec<Recorded> = Vec::new();
    for line in include_str!("fixtures/chaos_cells.txt").lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        match line.strip_prefix("== ") {
            Some(header) => runs.push(Recorded {
                header: header.to_string(),
                rows: Vec::new(),
            }),
            None => runs
                .last_mut()
                .expect("rows follow a header")
                .rows
                .push(line.to_string()),
        }
    }
    runs
}

/// The value of `key=` in a header such as `p=4 k=32 s=10 len=300 seed=42`.
fn field<T: std::str::FromStr>(header: &str, key: &str) -> T {
    header
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("`{header}` has no {key}="))
}

#[test]
fn chaos_matrices_reproduce_the_recorded_cells() {
    let runs = recorded();
    assert_eq!(runs.len(), 3);
    for run in runs {
        let h = run.header.as_str();
        let params = ModelParams::new(field(h, "p"), field(h, "k"), field(h, "s"));
        let matrices = chaos_matrices(
            &params,
            field(h, "len"),
            field(h, "seed"),
            false,
            &CellFilter::default(),
        )
        .unwrap_or_else(|e| panic!("{h}: {e}"));
        let cells: Vec<_> = matrices.iter().flat_map(|m| &m.cells).collect();
        assert_eq!(cells.len(), run.rows.len(), "{h}: cell count");
        for (cell, row) in cells.iter().zip(&run.rows) {
            assert!(
                cell.passed(),
                "{h}: {} failed: {:?}",
                cell.label,
                cell.violations
            );
            let mut got: Vec<String> = vec![cell.label.clone()];
            got.extend(cell.counters.iter().map(u64::to_string));
            got.push("pass".into());
            match row.strip_suffix(" FAIL") {
                Some(failed) => assert!(
                    failed.starts_with(&format!("{} ", cell.label)),
                    "{h}: expected {row}, got {}",
                    got.join(" ")
                ),
                None => assert_eq!(&got.join(" "), row, "{h}"),
            }
        }
    }
}
