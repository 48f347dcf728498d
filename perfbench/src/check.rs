//! Output checks: every row the program returns must match the
//! committed per-cell digest of its simulated fields.

use std::collections::BTreeMap;
use xbc_sim::{FrontendSpec, Row};

/// Per-cell row digests, one `trace<TAB>frontend key<TAB>insts<TAB>digest`
/// line per cell of every pool the workloads draw from (regenerate with
/// `--write-digests`).
const DIGESTS: &str = include_str!("../digests.tsv");

pub fn cell_key(trace: &str, fe: &FrontendSpec, insts: usize) -> String {
    format!("{trace}\t{}\t{insts}", fe.key())
}

/// FNV-1a over every simulated field of a row; `elapsed_ms` (host time)
/// is left out.
pub fn row_digest(r: &Row) -> u64 {
    let canon = format!(
        "{}|{}|{}|{}|{}|{}|{:x}|{:x}|{:x}|{}|{}|{}|{}|{}",
        r.trace,
        r.suite,
        r.frontend.key(),
        r.insts,
        r.uops,
        r.cycles,
        r.miss_rate.to_bits(),
        r.bandwidth.to_bits(),
        r.uops_per_cycle.to_bits(),
        r.cond_mispredicts,
        r.target_mispredicts,
        r.delivery_to_build,
        r.bank_conflict_uops,
        r.promotions
    );
    xbc_store::fnv1a64(canon.as_bytes())
}

/// True when two rows agree on every simulated field.
pub fn same_simulation(a: &Row, b: &Row) -> bool {
    row_digest(a) == row_digest(b)
}

pub struct Digests {
    table: BTreeMap<String, u64>,
    /// Tiny smoke runs use instruction counts the table does not cover.
    enforce: bool,
}

impl Digests {
    pub fn load(enforce: bool) -> Digests {
        let table = DIGESTS
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (key, digest) = l.rsplit_once('\t')?;
                Some((key.to_owned(), u64::from_str_radix(digest, 16).ok()?))
            })
            .collect();
        Digests { table, enforce }
    }

    /// Checks one row against its committed digest.
    pub fn check(&self, row: &Row) -> Result<(), String> {
        if !self.enforce {
            return Ok(());
        }
        let key = cell_key(&row.trace, &row.frontend, row.insts);
        match self.table.get(&key) {
            Some(&want) if want == row_digest(row) => Ok(()),
            Some(&want) => Err(format!(
                "row {} x {} differs from the committed digest ({:016x} != {want:016x})",
                row.trace,
                row.frontend.label(),
                row_digest(row)
            )),
            None => Err(format!("no committed digest for cell {key:?}")),
        }
    }
}

/// Renders the digest table for the given rows (sorted, deduplicated).
pub fn render_digests(rows: &[Row]) -> String {
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for r in rows {
        lines.insert(cell_key(&r.trace, &r.frontend, r.insts), row_digest(r));
    }
    let mut out = String::from(
        "# perfbench row digests: trace, frontend key, insts, FNV-1a of the simulated fields\n",
    );
    for (k, d) in lines {
        out.push_str(&format!("{k}\t{d:016x}\n"));
    }
    out
}
