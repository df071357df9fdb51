//! The three in-process workloads: one pinned request, every op on
//! fresh state (a fresh `OracleCache`; `adult_csv_cold` also re-ingests
//! its CSV), closed loop.

use crate::data::{self, Inputs};
use crate::spec;
use hypdb_core::{wire, AnalysisReport, AnalyzeRequest, HypDbConfig, OracleCache, OracleStats};
use hypdb_store::{read_csv_shards_path, ShardedTable, DEFAULT_SHARD_ROWS};
use hypdb_table::csv::{read_csv_path, write_csv_path};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

/// Where an op finds its table.
pub enum Source {
    /// Ingested from this CSV on every op (the CLI path).
    Csv(PathBuf),
    /// Resident, sharded as the CLI and the server hold it.
    Resident(ShardedTable),
}

/// A set-up in-process workload.
pub struct InProc {
    pub workload: &'static str,
    pub source: Source,
    pub request: AnalyzeRequest,
    pub base: HypDbConfig,
    /// The body every op must reproduce byte for byte, computed in
    /// set-up by another route: monolithic `Table`, `wire::analyze`.
    pub reference: String,
}

/// What one op produced.
pub struct OpOutput {
    pub body: String,
    pub stats: OracleStats,
    /// Contingency tables the op left in its oracle cache, and their bytes.
    pub tables: usize,
    pub cache_bytes: u64,
}

impl Drop for InProc {
    fn drop(&mut self) {
        if let Source::Csv(path) = &self.source {
            std::fs::remove_file(path).ok();
        }
    }
}

impl InProc {
    /// Generates the inputs, writes the CSV or builds the resident
    /// table, computes the reference body and checks what it says.
    pub fn setup(workload: &'static str, seed: u64) -> Result<InProc, String> {
        let Inputs {
            table,
            request,
            base,
        } = data::inputs(workload, seed);
        // The reference route: a monolithic `Table` (read back from the
        // CSV by the monolithic reader, when the op ingests one) and
        // `wire::analyze` with no shared cache.
        let (source, mono) = if workload == spec::ADULT_CSV_COLD {
            let path = scratch_file(&format!("{workload}-{seed}-{}.csv", std::process::id()))?;
            write_csv_path(&table, &path).map_err(|e| e.to_string())?;
            let mono = read_csv_path(&path).map_err(|e| e.to_string())?;
            (Source::Csv(path), mono)
        } else {
            let sharded = ShardedTable::from_table(&table, DEFAULT_SHARD_ROWS);
            (Source::Resident(sharded), table)
        };
        let report = wire::analyze(&mono, &request, &base).map_err(|e| e.to_string())?;
        check_report(workload, &report)?;
        let reference = wire::report_body(&report);
        Ok(InProc {
            workload,
            source,
            request,
            base,
            reference,
        })
    }

    /// The table an op analyses: the resident one, or a fresh ingest
    /// of the CSV.
    pub fn load(&self) -> Result<Cow<'_, ShardedTable>, String> {
        match &self.source {
            Source::Csv(path) => read_csv_shards_path(path, DEFAULT_SHARD_ROWS)
                .map(Cow::Owned)
                .map_err(|e| e.to_string()),
            Source::Resident(table) => Ok(Cow::Borrowed(table)),
        }
    }

    /// One op, exactly what the timed loop measures.
    pub fn op(&self) -> Result<OpOutput, String> {
        self.analyze(&*self.load()?)
    }

    /// Cold analyze on a fresh oracle cache, rendered as the wire body.
    pub fn analyze(&self, table: &ShardedTable) -> Result<OpOutput, String> {
        let cache = Arc::new(OracleCache::new());
        let report = wire::analyze_cached(table, &self.request, &self.base, Some(&cache))
            .map_err(|e| e.to_string())?;
        Ok(OpOutput {
            body: wire::report_body(&report),
            stats: cache.stats(),
            tables: cache.num_tables(),
            cache_bytes: cache.cache_bytes(),
        })
    }

    /// An op is correct when its body is the reference, byte for byte,
    /// and the oracle did the kind of work the workload was chosen for.
    pub fn check(&self, out: &OpOutput) -> Result<(), String> {
        if out.body != self.reference {
            return Err(format!(
                "{}: body differs from the reference",
                self.workload
            ));
        }
        let perms = out.stats.mit_permutations;
        match self.workload {
            spec::ADULT_CSV_COLD if perms != 0 => Err(format!(
                "adult_csv_cold ran {perms} permutations; the default regime runs none"
            )),
            spec::ADULT_PERM if perms == 0 || out.stats.mit_stage1_settled == 0 => Err(format!(
                "adult_perm: {perms} permutations, {} settled at stage 1; both must be > 0",
                out.stats.mit_stage1_settled
            )),
            spec::FLIGHT_WIDE if perms == 0 => {
                Err("flight_wide ran no permutations; they should engage naturally".into())
            }
            _ => Ok(()),
        }
    }
}

/// A file under `.ledger/` in the working directory (the checkout).
pub fn scratch_file(name: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.join(name))
}

/// What the reference report must say for the workload to be the
/// workload: a biased adult query with covariates; on flight, Airport
/// among the covariates and the Simpson reversal of Fig. 1.
pub fn check_report(workload: &str, report: &AnalysisReport) -> Result<(), String> {
    let ctx = report
        .contexts
        .first()
        .ok_or_else(|| format!("{workload}: report has no context"))?;
    if report.covariates.is_empty() || !ctx.bias_total.biased {
        return Err(format!(
            "{workload}: expected a biased query with covariates, got covariates {:?}, biased {}",
            report.covariates, ctx.bias_total.biased
        ));
    }
    if workload == spec::FLIGHT_WIDE {
        if !report.covariates.iter().any(|c| c == "Airport") {
            return Err(format!(
                "flight_wide: Airport not in covariates {:?}",
                report.covariates
            ));
        }
        // Levels are [AA, UA]; a diff is UA - AA in delay rate.
        let sql = ctx.sql_diff.as_ref().and_then(|d| d.first().copied());
        let adjusted = ctx
            .total_effect
            .as_ref()
            .and_then(|e| e.diff.as_ref())
            .and_then(|d| d.first().copied());
        match (sql, adjusted) {
            (Some(s), Some(a)) if s > 0.0 && a < 0.0 => {}
            _ => {
                return Err(format!(
                    "flight_wide: no Simpson reversal (SQL diff {sql:?} should favour AA, \
                     rewritten {adjusted:?} UA)"
                ))
            }
        }
    }
    Ok(())
}
