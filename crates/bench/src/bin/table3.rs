//! Reproduces Table 3: EMI testing of the Parboil/Rodinia miniatures across
//! the configurations (spmv and myocyte excluded because of their races).
//!
//! Usage: `cargo run --release -p bench --bin table3 -- [emi-bodies]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]
//! [--store PATH | --no-store]`
//! (number of EMI block bodies per benchmark; the paper uses 125.
//! `--paper-scale` draws the donor kernels the bodies are taken from at the
//! paper's generation scale).
//!
//! The job space is the benchmark × configuration cell grid
//! (benchmark-major), so shards and resumed runs journal one
//! [`BenchmarkCell`] per record; `table3 merge J1 [J2 ...]` stitches any
//! subset of cell journals back into the table, rendering unreached cells
//! as `–`, and `table3 coordinate [emi-bodies] --fleet-dir DIR
//! [--workers N] [--faults SPEC] [--follow]` runs the grid as a
//! crash-tolerant worker fleet.

use std::sync::Arc;

use bench::{Cli, Provenance, Table};
use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::{
    checksum, evaluate_benchmark_with, render_table, BenchmarkCell, Campaign, EmiBenchmark,
    JournalError, JournalPayload, Mergeable, Scheduler, StagedJob, EMPTY_CELL,
};
use opencl_sim::{Configuration, ExecOptions};
use parboil_rodinia::table3_benchmarks;

/// One Table 3 cell: a benchmark evaluated on one configuration.  The
/// inner body fan-out runs sequentially — the cell grid itself is the
/// parallel (and shardable) job space.  A cell's input is prebuilt and its
/// verdict is folded inside the evaluation, so the whole cell is one
/// execute stage (generate and judge pass through).
struct CellJob {
    benchmark: Arc<EmiBenchmark>,
    config: Configuration,
    exec: ExecOptions,
}

impl StagedJob for CellJob {
    type Generated = CellJob;
    type Executed = BenchmarkCell;
    type Output = BenchmarkCell;

    fn generate(self) -> CellJob {
        self
    }

    fn execute(cell: CellJob) -> BenchmarkCell {
        evaluate_benchmark_with(
            &Scheduler::sequential(),
            &cell.benchmark,
            &cell.config,
            &cell.exec,
        )
    }

    fn judge(cell: BenchmarkCell) -> BenchmarkCell {
        cell
    }
}

/// The (possibly partial) cell grid, benchmark-major; `None` marks a cell
/// no journal has reached.  Shards cover disjoint cells, so a merge fills
/// in every cell the other side holds.
#[derive(Debug, Clone)]
struct CellGrid(Vec<Option<BenchmarkCell>>);

impl Mergeable for CellGrid {
    fn merge(&mut self, other: CellGrid) {
        for (cell, theirs) in self.0.iter_mut().zip(other.0) {
            if theirs.is_some() {
                *cell = theirs;
            }
        }
    }

    fn serialize(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|cell| {
                cell.as_ref()
                    .map_or("-".to_string(), JournalPayload::encode)
            })
            .collect();
        cells.join(";")
    }

    fn deserialize(text: &str) -> Result<CellGrid, JournalError> {
        text.split(';')
            .map(|cell| match cell {
                "-" => Ok(None),
                cell => BenchmarkCell::decode(cell).map(Some),
            })
            .collect::<Result<_, _>>()
            .map(CellGrid)
    }
}

/// The Table 3 grid as a campaign: job `g` evaluates benchmark
/// `g / configs` on configuration `g % configs`.
struct BenchmarkGrid {
    descriptor: String,
    names: Vec<String>,
    configs: Vec<Configuration>,
    /// The benchmarks with their EMI bodies (empty when parsed back from a
    /// journal descriptor).
    benchmarks: Vec<Arc<EmiBenchmark>>,
    exec: ExecOptions,
}

/// The benchmark names, in row order.
fn benchmark_names() -> Vec<String> {
    table3_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

/// Fingerprint token of the benchmark × configuration grid, embedded in
/// the campaign descriptor and re-validated on merge so journals recorded
/// over a different grid (reordered configurations, changed benchmark
/// list) cannot silently land under the wrong rows/columns.
fn grid_token(names: &[String], configs: &[Configuration]) -> String {
    let config_ids: Vec<String> = configs.iter().map(|c| c.id.to_string()).collect();
    let grid = format!("{}\n---\n{}", names.join("\n"), config_ids.join("\n"));
    format!("grid{:016x}", checksum(grid.as_bytes()))
}

impl Campaign for BenchmarkGrid {
    type Job = CellJob;
    type Record = BenchmarkCell;
    type Tally = CellGrid;
    type Context = [Configuration];

    fn descriptor(&self) -> String {
        self.descriptor.clone()
    }

    fn parse(descriptor: &str, configs: &[Configuration]) -> Result<Self, JournalError> {
        let names = benchmark_names();
        if !descriptor.starts_with("table3:") || !descriptor.ends_with(&grid_token(&names, configs))
        {
            return Err(JournalError::Mismatch(format!(
                "{descriptor:?} is not a Table 3 journal over this build's \
                 {} benchmarks × {} configurations",
                names.len(),
                configs.len()
            )));
        }
        Ok(BenchmarkGrid {
            descriptor: descriptor.to_string(),
            names,
            configs: configs.to_vec(),
            benchmarks: Vec::new(),
            exec: ExecOptions::default(),
        })
    }

    fn seed(&self) -> u64 {
        0
    }

    fn job_count(&self) -> u64 {
        (self.names.len() * self.configs.len()) as u64
    }

    fn job(&self, g: u64) -> (u64, CellJob) {
        let columns = self.configs.len() as u64;
        let job = CellJob {
            benchmark: Arc::clone(&self.benchmarks[(g / columns) as usize]),
            config: self.configs[(g % columns) as usize].clone(),
            exec: self.exec.clone(),
        };
        // Cells have no RNG seed of their own; record the index.
        (g, job)
    }

    fn tally(&self) -> CellGrid {
        CellGrid(vec![None; self.job_count() as usize])
    }

    fn fold(&self, tally: &mut CellGrid, g: u64, cell: BenchmarkCell) -> Result<(), JournalError> {
        let slot = tally.0.get_mut(g as usize).ok_or_else(|| {
            JournalError::Format(format!(
                "job {g} lies past the {}-cell grid",
                self.job_count()
            ))
        })?;
        *slot = Some(cell);
        Ok(())
    }
}

struct Table3;

impl Table for Table3 {
    type Campaign = BenchmarkGrid;
    const SCALE: &'static [usize] = &[3];

    fn configs() -> Vec<Configuration> {
        opencl_sim::all_configurations()
    }

    fn campaign(
        cli: &Cli,
        configs: &[Configuration],
        scale: &[usize],
        exec: ExecOptions,
    ) -> BenchmarkGrid {
        let bodies = scale[0];
        let generator = cli.generator_or(GeneratorOptions {
            min_threads: 16,
            max_threads: 32,
            ..GeneratorOptions::default()
        });
        // EMI block bodies are taken from CLsmith-generated kernels (§7.2);
        // the donor seeds are fixed, so every shard derives identical
        // bodies.
        let donor_bodies: Vec<clc::Block> = (0..bodies)
            .map(|i| {
                let donor = generate(
                    &GeneratorOptions {
                        mode: GenMode::Basic,
                        seed: 900 + i as u64,
                        ..generator.clone()
                    }
                    .with_emi(),
                );
                donor
                    .emi_blocks()
                    .first()
                    .map(|b| b.body.clone())
                    .unwrap_or_default()
            })
            .collect();
        let benchmarks = table3_benchmarks()
            .iter()
            .map(|bench| {
                Arc::new(EmiBenchmark {
                    name: bench.name.to_string(),
                    program: bench.program.clone(),
                    bodies: donor_bodies.clone(),
                    injection_points: 1,
                })
            })
            .collect();
        let names = benchmark_names();
        BenchmarkGrid {
            descriptor: format!(
                "table3:bodies{bodies}:gen{:016x}:{}",
                checksum(format!("{generator:?}").as_bytes()),
                grid_token(&names, configs)
            ),
            names,
            configs: configs.to_vec(),
            benchmarks,
            exec,
        }
    }

    fn render(grid: &BenchmarkGrid, cells: &CellGrid, _: &Provenance) -> String {
        let headers: Vec<String> = std::iter::once("Benchmark".to_string())
            .chain(grid.configs.iter().map(|c| c.id.to_string()))
            .collect();
        let rows: Vec<Vec<String>> = grid
            .names
            .iter()
            .zip(cells.0.chunks(grid.configs.len().max(1)))
            .map(|(name, row)| {
                std::iter::once(name.clone())
                    .chain(row.iter().map(|cell| match cell {
                        Some(cell) => cell.render(),
                        None => EMPTY_CELL.to_string(),
                    }))
                    .collect()
            })
            .collect();
        format!(
            "Table 3 — EMI testing over the Parboil/Rodinia miniatures\n\
             (letters: w = wrong code, c = crash/build failure, to = timeout, ng = cannot run benchmark, ok = no mismatch;\n \
             superscripts: e = needs substitutions, d = needs substitutions disabled, ? = either)\n\n{}",
            render_table(&headers, &rows)
        )
    }
}

fn main() {
    bench::campaign_main::<Table3>();
}
