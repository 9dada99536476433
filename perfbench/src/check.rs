//! The correctness gate: every store a workload produces is compared
//! byte-for-byte with what the in-process reference path writes for the
//! same spec. A cell whose line is missing or differs counts as failed.

use std::path::Path;

use stabcon_exp::store;
use stabcon_exp::{CellAggregate, CellSpec};
use stabcon_util::jsonl::{parse_flat, JsonScalar};

/// The store's lines, each with its newline; a torn final line is dropped
/// (it would be a missing cell).
fn lines(path: &Path) -> Result<Vec<Vec<u8>>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes
        .split_inclusive(|&b| b == b'\n')
        .filter(|l| l.ends_with(b"\n"))
        .map(<[u8]>::to_vec)
        .collect())
}

/// Cells of `produced` that are missing or differ from `reference` (both
/// stores of a `cells`-cell grid, header first). A different header fails
/// every cell; surplus lines each count as a failed cell.
pub fn bad_cells(produced: &Path, reference: &Path, cells: u64) -> Result<u64, String> {
    let got = lines(produced)?;
    let want = lines(reference)?;
    if want.len() as u64 != cells + 1 {
        return Err(format!(
            "{}: reference store has {} lines for {cells} cells",
            reference.display(),
            want.len()
        ));
    }
    if got.first() != want.first() {
        return Ok(cells);
    }
    let differing = (1..want.len())
        .filter(|&i| got.get(i) != Some(&want[i]))
        .count();
    let surplus = got.len().saturating_sub(want.len());
    Ok((differing + surplus) as u64)
}

/// Whether `line` is a complete record of `cell`: its leading fields —
/// kind, id, seed, trial count, metric and axis labels, everything before
/// the results — are the ones the library's own renderer writes for the
/// cell. Only the results are left unchecked.
fn has_identity(line: &[u8], cell: &CellSpec) -> bool {
    let empty = store::cell_line(cell, &CellAggregate::new());
    let mut want = parse_flat(&empty).expect("the library renders flat records");
    let results = want
        .iter()
        .position(|(k, _)| k == "hits")
        .unwrap_or(want.len());
    want.truncate(results);
    for (key, value) in &mut want {
        if key == "trials" {
            *value = JsonScalar::Int(cell.trials);
        }
    }
    let Ok(text) = std::str::from_utf8(line) else {
        return false;
    };
    parse_flat(text.trim_end())
        .is_ok_and(|got| got.len() >= want.len() && got[..want.len()] == want[..])
}

/// Cells of `produced` that fail against a partial reference: the header
/// line, every line's identity (id, seed, trials, labels), and the listed
/// `(cell index, line)` pairs in full, where each line is given without
/// its newline.
pub fn bad_cells_sampled(
    produced: &Path,
    header: &str,
    cells: &[CellSpec],
    expected: &[(u64, String)],
) -> Result<u64, String> {
    let got = lines(produced)?;
    if got.first().map(Vec::as_slice) != Some(format!("{header}\n").as_bytes()) {
        return Ok(cells.len() as u64);
    }
    let mut bad = 0;
    for (i, cell) in cells.iter().enumerate() {
        let full = expected.iter().find(|(idx, _)| *idx == i as u64);
        let ok = match (got.get(i + 1), full) {
            (None, _) => false,
            (Some(line), Some((_, want))) => *line == format!("{want}\n").as_bytes(),
            (Some(line), None) => has_identity(line, cell),
        };
        bad += u64::from(!ok);
    }
    let surplus = got.len().saturating_sub(cells.len() + 1);
    Ok(bad + surplus as u64)
}

/// Test hook: flip one byte in the middle of the line of cell `idx`, the
/// way a bit flip or a wrong fold would change a record.
pub fn corrupt_cell_line(path: &Path, idx: u64) -> Result<(), String> {
    let mut all = lines(path)?;
    let line = all
        .get_mut(idx as usize + 1)
        .ok_or_else(|| format!("{}: no cell line {idx}", path.display()))?;
    let mid = line.len() / 2;
    line[mid] = if line[mid] == b'7' { b'8' } else { b'7' };
    std::fs::write(path, all.concat()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_cells_counts_differences_and_gaps() {
        let dir = Path::new(".bench_work").join(format!("test-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::write(&a, "h\nc0\nc1\nc2\n").unwrap();
        std::fs::write(&b, "h\nc0\nc1\nc2\n").unwrap();
        assert_eq!(bad_cells(&b, &a, 3).unwrap(), 0);
        std::fs::write(&b, "h\nc0\nX1\n").unwrap();
        assert_eq!(bad_cells(&b, &a, 3).unwrap(), 2);
        std::fs::write(&b, "H\nc0\nc1\nc2\n").unwrap();
        assert_eq!(bad_cells(&b, &a, 3).unwrap(), 3);
        std::fs::write(&b, "h\nc0\nc1\nc2\nc3\n").unwrap();
        assert_eq!(bad_cells(&b, &a, 3).unwrap(), 1);
        std::fs::write(&b, "h\nc0\nc1\nc2\n").unwrap();
        corrupt_cell_line(&b, 1).unwrap();
        assert_eq!(bad_cells(&b, &a, 3).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_gate_checks_every_identity_and_the_sampled_lines() {
        let dir = Path::new(".bench_work").join(format!("test-sampled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = stabcon_exp::presets::preset("smoke").unwrap();
        let cells = spec.expand();
        let header = spec.header().to_line();
        let pool = stabcon_par::ThreadPool::new(1);
        let full: Vec<String> = cells
            .iter()
            .map(|c| store::cell_line(c, &stabcon_exp::run_cell(&pool, c, 4)))
            .collect();
        let path = dir.join("store.jsonl");
        let write = |lines: &[String]| {
            let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, format!("{header}\n{body}")).unwrap();
        };
        let sample = [(2, full[2].clone())];
        write(&full);
        assert_eq!(
            bad_cells_sampled(&path, &header, &cells, &sample).unwrap(),
            0
        );
        // A wrong id on an unsampled line breaks its identity.
        let mut wrong = full.clone();
        wrong[0] = wrong[0].replacen("\"cell\": 0", "\"cell\": 9", 1);
        assert_ne!(wrong[0], full[0]);
        write(&wrong);
        assert_eq!(
            bad_cells_sampled(&path, &header, &cells, &sample).unwrap(),
            1
        );
        // A damaged sampled line, and a missing last line.
        write(&full[..3]);
        corrupt_cell_line(&path, 2).unwrap();
        assert_eq!(
            bad_cells_sampled(&path, &header, &cells, &sample).unwrap(),
            2
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
