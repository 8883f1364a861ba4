//! The shard/merge layer: every campaign runs as a set of **shards** (or
//! fleet leases) over an explicit, serializable job index space, with an
//! optional resumable journal ([`crate::journal`]) and deterministic merge.
//!
//! Four pieces:
//!
//! * [`Campaign`] — what a table's campaign is to this layer: a descriptor
//!   (parsed back on merge), a job count, `job(g) -> (seed, job)`, an empty
//!   tally and a fold.  Because every job's seed is a pure function of the
//!   campaign seed and the job *index*, any slice of the space is
//!   independently computable on any machine.
//! * [`ShardSpec`] / [`ShardSelect`] — a spec names one contiguous slice of
//!   `0..job_count` (shard `i` of `n`).
//! * [`run_range_fold`] — the one executor.  It resumes whatever the
//!   journal already holds, runs the rest of a range on a [`Scheduler`],
//!   streams each completed record to the journal's writer thread, and
//!   folds records into the campaign's tally in job-index order.
//!   [`run_shard`] runs it over a shard's header, [`run_lease`] over a
//!   fleet lease's (with checkpoints).
//! * [`Mergeable`] + [`merge_journals`] — tallies serialize, deserialize
//!   and merge associatively, and any subset of shard or lease journals
//!   refolds into one tally for full or partial tables.
//!
//! The invariant the `shard_equivalence` integration test pins: for a fixed
//! campaign seed, *(single process)* ≡ *(N shards merged)* ≡ *(killed at
//! any job boundary, then resumed)* — bit-identical rendered tables.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::exec::{JobResult, PipelineMetrics, Scheduler, StagedJob};
use crate::fleet::LeaseRecord;
use crate::journal::{
    compact_journal, load_journal, Checkpoint, JournalError, JournalHeader, JournalRecord,
    JournalWriter,
};

/// A shard's slice of a campaign: the campaign seed, the size of the global
/// job index space, and which contiguous slice of it this shard covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The campaign seed every job seed derives from.
    pub campaign_seed: u64,
    /// Size of the global job index space.
    pub total_jobs: u64,
    /// Index of this shard.
    pub shard_index: u32,
    /// Total number of shards the job space is partitioned into.
    pub shard_count: u32,
}

impl ShardSpec {
    /// Shard `select.index` of `select.count` over `0..total_jobs`.
    pub fn select(campaign_seed: u64, total_jobs: u64, select: ShardSelect) -> ShardSpec {
        ShardSpec {
            campaign_seed,
            total_jobs,
            shard_index: select.index,
            shard_count: select.count,
        }
    }

    /// The contiguous job-index slice this shard covers.  The partition is
    /// exact: consecutive shards tile `0..total_jobs` without gaps or
    /// overlaps, and sizes differ by at most one job.
    pub fn job_range(&self) -> Range<u64> {
        let total = self.total_jobs as u128;
        let count = self.shard_count.max(1) as u128;
        let index = (self.shard_index as u128).min(count - 1);
        let start = (total * index / count) as u64;
        let end = (total * (index + 1) / count) as u64;
        start..end
    }

    /// Number of jobs in this shard's slice.
    pub fn jobs(&self) -> u64 {
        let range = self.job_range();
        range.end - range.start
    }

    /// The header a journal for this shard carries.
    pub fn header(&self, campaign: &str) -> JournalHeader {
        let range = self.job_range();
        JournalHeader {
            campaign: campaign.to_string(),
            campaign_seed: self.campaign_seed,
            total_jobs: self.total_jobs,
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            range: (range.start, range.end),
        }
    }
}

/// The header a fleet lease journal carries: the shard field is
/// `lease/0` — count `0` is the "not an I-of-N shard" sentinel — and the
/// journal's coverage is the explicit `[start, end)` range of the lease.
pub fn lease_header(
    campaign: &str,
    campaign_seed: u64,
    total_jobs: u64,
    lease: u32,
    range: Range<u64>,
) -> JournalHeader {
    JournalHeader {
        campaign: campaign.to_string(),
        campaign_seed,
        total_jobs,
        shard_index: lease,
        shard_count: 0,
        range: (range.start, range.end),
    }
}

/// Which shard of how many — the `--shard I/N` selector of the table
/// binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSelect {
    /// Shard index, `0 <= index < count`.
    pub index: u32,
    /// Total shard count, at least 1.
    pub count: u32,
}

impl ShardSelect {
    /// The degenerate selector covering the whole job space.
    pub fn whole() -> ShardSelect {
        ShardSelect { index: 0, count: 1 }
    }

    /// Parses `"I/N"` (e.g. `"0/3"`), validating `I < N` and `N >= 1`.
    pub fn parse(text: &str) -> Result<ShardSelect, String> {
        let invalid = || format!("expected --shard I/N with I < N, got {text:?}");
        let (index, count) = text.split_once('/').ok_or_else(invalid)?;
        let index: u32 = index.parse().map_err(|_| invalid())?;
        let count: u32 = count.parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(ShardSelect { index, count })
    }
}

impl std::fmt::Display for ShardSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// An aggregation state that campaign shards fold into: it serializes to a
/// single whitespace-free token, deserializes back, and merges
/// **associatively** (merging per-shard aggregates in any grouping yields
/// the same state as folding every job into one aggregate).
pub trait Mergeable: Sized {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
    /// Serializes to a single whitespace-free token.
    fn serialize(&self) -> String;
    /// Parses a token produced by [`Mergeable::serialize`].
    fn deserialize(text: &str) -> Result<Self, JournalError>;
}

/// A per-job output that can be journaled: encodes to a single
/// whitespace-free token and decodes back to an identical value, so a
/// resumed campaign folds journaled jobs bit-identically to executed ones.
pub trait JournalPayload: Sized {
    /// Encodes to a single whitespace-free token.
    fn encode(&self) -> String;
    /// Parses a token produced by [`JournalPayload::encode`].
    fn decode(text: &str) -> Result<Self, JournalError>;
}

/// Where (and whether) a sharded run journals its progress.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume: load the journal first, skip its jobs, and append; without
    /// it the journal is created afresh (truncating any existing file).
    pub resume: bool,
}

impl JournalOptions {
    /// A fresh journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> JournalOptions {
        JournalOptions {
            path: path.into(),
            resume: false,
        }
    }

    /// Resume from (and append to) the journal at `path`.
    pub fn resume(path: impl Into<PathBuf>) -> JournalOptions {
        JournalOptions {
            path: path.into(),
            resume: true,
        }
    }
}

/// What a shard or lease run did: how much came from the journal, how much
/// ran, and how big the journal grew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Jobs restored from the journal instead of executed.
    pub jobs_resumed: u64,
    /// Jobs executed by this run (after any resume skip).
    pub jobs_replayed: u64,
    /// Final size of the journal file in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Corrupt tail bytes dropped on resume (a mid-write kill's residue).
    pub dropped_bytes: u64,
    /// Shard count of the spec the run executed under.
    pub shard_count: u32,
}

/// Validates that a loaded journal belongs to the campaign and shard the
/// caller is about to run.
fn validate_header(
    loaded: &JournalHeader,
    expected: &JournalHeader,
    path: &Path,
) -> Result<(), JournalError> {
    if loaded != expected {
        return Err(JournalError::Mismatch(format!(
            "{} was written by campaign {:?} (seed {:016x}, {} jobs, shard {}/{}), \
             expected {:?} (seed {:016x}, {} jobs, shard {}/{})",
            path.display(),
            loaded.campaign,
            loaded.campaign_seed,
            loaded.total_jobs,
            loaded.shard_index,
            loaded.shard_count,
            expected.campaign,
            expected.campaign_seed,
            expected.total_jobs,
            expected.shard_index,
            expected.shard_count,
        )));
    }
    Ok(())
}

/// One table's campaign: a seeded job index space, the [`StagedJob`] each
/// index runs, and the [`Mergeable`] tally the job outputs fold into.
///
/// Every driver in this crate implements it (classification, mode and EMI
/// campaigns, plus the Table 3 cell grid in the `table3` binary), and
/// [`run_shard`], [`run_lease`] and [`merge_journals`] are the only
/// executors and refolds over it: a shard, a fleet lease and a `merge` of
/// any journal subset all fold the same records through
/// [`Campaign::fold`], so they render identical tables.
pub trait Campaign: Sized {
    /// The job one index of the space runs.
    type Job: StagedJob<Output = Self::Record>;
    /// One job's output, which is also its journal payload.
    type Record: JournalPayload;
    /// The aggregation state records fold into.
    type Tally: Mergeable;
    /// What a journal's descriptor is validated against on merge (the
    /// configuration list the table spans).
    type Context: ?Sized;

    /// The single-token descriptor journal headers carry; resume and merge
    /// refuse journals whose descriptor differs.
    fn descriptor(&self) -> String;
    /// Parses a [`Campaign::descriptor`] back, validating it against
    /// `context`.  The result knows the job space's shape, so it builds
    /// empty tallies and folds records — all a merge needs — but the
    /// descriptor only fingerprints the generator options, so its jobs are
    /// built from defaults and must not be run.
    fn parse(descriptor: &str, context: &Self::Context) -> Result<Self, JournalError>;
    /// The campaign seed every job seed derives from.
    fn seed(&self) -> u64;
    /// Size of the job index space.
    fn job_count(&self) -> u64;
    /// Job `g`'s derived seed (recorded in the journal) and the job itself.
    fn job(&self, g: u64) -> (u64, Self::Job);
    /// An empty tally.
    fn tally(&self) -> Self::Tally;
    /// Folds job `g`'s record into `tally`.  Journaled records are
    /// checksummed, not trusted: a record that does not fit the campaign's
    /// shape (a row of the wrong length, an index past the job space) is a
    /// [`JournalError::Format`], never a panic.
    fn fold(
        &self,
        tally: &mut Self::Tally,
        g: u64,
        record: Self::Record,
    ) -> Result<(), JournalError>;
}

/// Runs shard `select` of a campaign (the whole space under
/// [`ShardSelect::whole`]), optionally journaled and resumed.  The journal
/// header is the shard's [`ShardSpec::header`]; no checkpoints are written,
/// so the journal holds one record per job, in completion order.
pub fn run_shard<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    select: ShardSelect,
    journal: Option<&JournalOptions>,
) -> Result<FoldRun<C::Tally>, JournalError> {
    let spec = ShardSpec::select(campaign.seed(), campaign.job_count(), select);
    run_range_fold(
        scheduler,
        campaign,
        &spec.header(&campaign.descriptor()),
        journal,
        None,
        None,
    )
}

/// Runs one fleet lease of a campaign: jobs `[lease.start, lease.end)`,
/// resumed from and checkpointed into the lease's journal (see
/// [`run_range_fold`] for `stop_before`).
pub fn run_lease<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    lease: &LeaseRecord,
    checkpoint: CheckpointPolicy,
    stop_before: Option<u64>,
) -> Result<FoldRun<C::Tally>, JournalError> {
    let header = lease_header(
        &campaign.descriptor(),
        campaign.seed(),
        campaign.job_count(),
        lease.id,
        lease.start..lease.end,
    );
    run_range_fold(
        scheduler,
        campaign,
        &header,
        Some(&JournalOptions::resume(&lease.journal)),
        Some(checkpoint),
        stop_before,
    )
}

/// How often a fold-based run emits journal checkpoints: one `K` line per
/// `every` newly folded jobs (plus a final one at the end of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Jobs folded between checkpoints (at least 1).
    pub every: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy { every: 32 }
    }
}

/// Output of [`run_range_fold`]: the folded aggregate of the journal's
/// range, plus run metrics.
#[derive(Debug)]
pub struct FoldRun<A> {
    /// Every covered job's contribution folded in ascending index order.
    pub aggregate: A,
    /// Jobs the aggregate covers (resumed + executed).
    pub jobs: u64,
    /// Resume/journal metrics.
    pub metrics: ShardMetrics,
    /// Stage-scheduler self-measurement.
    pub pipeline: PipelineMetrics,
}

/// The range executor behind shards and fleet leases: runs the jobs of
/// `header.range` that the journal (if any) does not already hold.
///
/// It never materializes per-job outputs: completed jobs are folded into a
/// running aggregate as soon as the **contiguous completed prefix** of the
/// range advances past them (a watermark — jobs finish out of order under a
/// parallel scheduler, the fold stays in ascending index order regardless).
/// Completed records stream to the journal's writer thread in completion
/// order.  With a [`CheckpointPolicy`] the running aggregate is serialized
/// into the journal as a `K` line every `every` folded jobs, and the
/// journal is compacted after the run — resume cost is then O(tail since
/// last checkpoint), not O(run).
///
/// An executed output is folded via `decode(encode(output))`, exactly the
/// value a resumed run would fold, so the two are bit-identical by
/// construction.  The tally's [`Mergeable::merge`] must be commutative as
/// well as associative (every tally in this codebase is a vector of
/// counters).
///
/// `stop_before` truncates execution to `[range.0, stop_before)` while
/// keeping the journal's declared range intact — the fault-injection layer
/// uses it to abandon a lease at a chosen job index; a later resume of the
/// same journal completes the rest.
///
/// A panicking job is re-raised deterministically (lowest failed index)
/// *after* every completed job of the batch has been journaled — so even a
/// campaign aborted by a poisoned job resumes from everything that
/// finished.
pub fn run_range_fold<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    header: &JournalHeader,
    journal: Option<&JournalOptions>,
    checkpoint: Option<CheckpointPolicy>,
    stop_before: Option<u64>,
) -> Result<FoldRun<C::Tally>, JournalError> {
    let range = header.range.0..header.range.1;
    let limit = stop_before
        .unwrap_or(range.end)
        .clamp(range.start, range.end);

    // Phase 1: resume — seed the aggregate from the checkpoint, restore the
    // uncovered records, and advance the watermark over both.
    let mut aggregate = campaign.tally();
    let mut watermark = range.start;
    let mut staged: BTreeMap<u64, C::Record> = BTreeMap::new();
    let mut jobs_resumed = 0u64;
    let mut dropped_bytes = 0u64;
    let mut resume_from: Option<u64> = None;
    if let Some(options) = journal {
        if options.resume && options.path.exists() {
            let loaded = load_journal(&options.path)?;
            validate_header(&loaded.header, header, &options.path)?;
            dropped_bytes = loaded.dropped_bytes;
            resume_from = Some(loaded.valid_bytes);
            if let Some(cp) = &loaded.checkpoint {
                aggregate.merge(C::Tally::deserialize(&cp.aggregate)?);
                watermark = cp.upto;
                jobs_resumed += cp.jobs;
            }
            for record in loaded.records {
                staged.insert(record.job_index, C::Record::decode(&record.payload)?);
                jobs_resumed += 1;
            }
            while let Some(record) = staged.remove(&watermark) {
                campaign.fold(&mut aggregate, watermark, record)?;
                watermark += 1;
            }
        }
    }

    // Phase 2: the jobs still missing below the execution limit.
    let mut meta: Vec<(u64, u64)> = Vec::new();
    let mut jobs: Vec<C::Job> = Vec::new();
    for index in watermark..limit {
        if !staged.contains_key(&index) {
            let (seed, job) = campaign.job(index);
            meta.push((index, seed));
            jobs.push(job);
        }
    }

    // Phase 3: execute, folding at the watermark and checkpointing as the
    // contiguous completed prefix grows.
    let writer = match journal {
        Some(options) => Some(match resume_from {
            Some(valid_bytes) => JournalWriter::append(&options.path, valid_bytes)?,
            None => JournalWriter::create(&options.path, header)?,
        }),
        None => None,
    };
    let jobs_replayed = jobs.len() as u64;
    let mut checkpointed_upto = watermark;
    let mut since_checkpoint = 0u64;
    let mut fold_error: Option<JournalError> = None;
    let (results, pipeline) = scheduler.run_staged_metrics(jobs, |batch_index, result| {
        let JobResult::Completed(output) = result else {
            return;
        };
        if fold_error.is_some() {
            return;
        }
        let (index, seed) = meta[batch_index];
        let token = output.encode();
        if let Some(writer) = &writer {
            writer.record(JournalRecord::new(index, seed, token.clone()));
        }
        let folded = C::Record::decode(&token).and_then(|decoded| {
            staged.insert(index, decoded);
            while let Some(next) = staged.remove(&watermark) {
                campaign.fold(&mut aggregate, watermark, next)?;
                watermark += 1;
                since_checkpoint += 1;
            }
            Ok(())
        });
        if let Err(e) = folded {
            fold_error = Some(e);
            return;
        }
        if let (Some(policy), Some(writer)) = (&checkpoint, &writer) {
            if since_checkpoint >= policy.every.max(1) && watermark > checkpointed_upto {
                writer.checkpoint(Checkpoint {
                    upto: watermark,
                    jobs: watermark - range.start,
                    aggregate: aggregate.serialize(),
                });
                checkpointed_upto = watermark;
                since_checkpoint = 0;
            }
        }
    });
    if let (Some(_), Some(writer)) = (&checkpoint, &writer) {
        // Final checkpoint: everything folded so far, so the compacted
        // journal is header + one K line (+ any out-of-order residue).
        if watermark > checkpointed_upto {
            writer.checkpoint(Checkpoint {
                upto: watermark,
                jobs: watermark - range.start,
                aggregate: aggregate.serialize(),
            });
        }
    }
    let mut journal_bytes = match writer {
        Some(writer) => writer.finish()?,
        None => 0,
    };
    if let (Some(_), Some(options)) = (&checkpoint, journal) {
        let (_, after) = compact_journal(&options.path)?;
        journal_bytes = after;
    }

    // Phase 4: re-raise contained panics, then surface any fold error.
    crate::exec::expect_completed(results);
    if let Some(error) = fold_error {
        return Err(error);
    }
    debug_assert!(watermark >= limit, "every job below the limit must fold");
    Ok(FoldRun {
        aggregate,
        jobs: jobs_resumed + jobs_replayed,
        metrics: ShardMetrics {
            jobs_resumed,
            jobs_replayed,
            journal_bytes,
            dropped_bytes,
            shard_count: header.shard_count,
        },
        pipeline,
    })
}

/// What a refold over a set of journals covered.
#[derive(Debug, Clone)]
pub struct RefoldSummary {
    /// The campaign header shared by every journal (shard fields taken from
    /// the first journal; they differ across shards by design).
    pub campaign: String,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// Size of the global job space.
    pub total_jobs: u64,
    /// Distinct jobs folded.
    pub jobs_folded: u64,
    /// Whether every job of the space was present (a complete table).
    pub complete: bool,
    /// Total bytes across the journal files.
    pub journal_bytes: u64,
    /// Number of journal files merged.
    pub journals: usize,
}

/// Refolds any subset of a campaign's shard (or fleet lease) journals into
/// one tally: parses the first journal's descriptor into the campaign
/// ([`Campaign::parse`]), validates that every journal belongs to it, sorts
/// all records by job index (duplicate indices must carry identical digests
/// — overlapping shards are fine, conflicting ones are corrupt), and folds
/// each record in index order.
///
/// A journal carrying a checkpoint contributes its pre-folded tally
/// directly (merged via [`Mergeable`]); its segment `[range.0, upto)` must
/// not overlap any other journal's checkpoint segment (there is no per-job
/// digest left to arbitrate a conflict), and plain records duplicated under
/// a checkpoint segment are dropped as redundant.
pub fn merge_journals<C: Campaign>(
    paths: &[PathBuf],
    context: &C::Context,
) -> Result<(C, C::Tally, RefoldSummary), JournalError> {
    let mut first: Option<(JournalHeader, C)> = None;
    let mut records: BTreeMap<u64, JournalRecord> = BTreeMap::new();
    // Checkpoint segments as (start, upto, aggregate token, source path).
    let mut segments: Vec<(u64, u64, String, PathBuf)> = Vec::new();
    let mut journal_bytes = 0u64;
    for path in paths {
        let loaded = load_journal(path)?;
        match &first {
            None => {
                let campaign = C::parse(&loaded.header.campaign, context)?;
                first = Some((loaded.header.clone(), campaign));
            }
            Some((header, _)) => {
                if loaded.header.campaign != header.campaign
                    || loaded.header.campaign_seed != header.campaign_seed
                    || loaded.header.total_jobs != header.total_jobs
                {
                    return Err(JournalError::Mismatch(format!(
                        "{} belongs to campaign {:?} seed {:016x} ({} jobs); \
                         the first journal holds {:?} seed {:016x} ({} jobs)",
                        path.display(),
                        loaded.header.campaign,
                        loaded.header.campaign_seed,
                        loaded.header.total_jobs,
                        header.campaign,
                        header.campaign_seed,
                        header.total_jobs,
                    )));
                }
            }
        }
        journal_bytes += loaded.valid_bytes;
        if let Some(cp) = &loaded.checkpoint {
            if cp.jobs > 0 {
                segments.push((
                    loaded.header.range.0,
                    cp.upto,
                    cp.aggregate.clone(),
                    path.clone(),
                ));
            }
        }
        for record in loaded.records {
            match records.get(&record.job_index) {
                Some(existing) if existing.digest != record.digest => {
                    return Err(JournalError::Mismatch(format!(
                        "job {} appears with conflicting digests across journals \
                         ({:016x} vs {:016x})",
                        record.job_index, existing.digest, record.digest
                    )));
                }
                Some(_) => {}
                None => {
                    records.insert(record.job_index, record);
                }
            }
        }
    }
    let Some((header, campaign)) = first else {
        return Err(JournalError::Mismatch(
            "no journals to merge (expected at least one path)".into(),
        ));
    };
    segments.sort_by_key(|(start, _, _, _)| *start);
    for pair in segments.windows(2) {
        let (_, upto, _, prev_path) = &pair[0];
        let (start, _, _, next_path) = &pair[1];
        if upto > start {
            return Err(JournalError::Mismatch(format!(
                "checkpoint segments overlap: {} covers through job {} but {} \
                 starts at job {}",
                prev_path.display(),
                upto,
                next_path.display(),
                start
            )));
        }
    }
    // Records a checkpoint already folded are redundant duplicates.
    records.retain(|index, _| {
        !segments
            .iter()
            .any(|(start, upto, _, _)| (*start..*upto).contains(index))
    });
    let mut tally = campaign.tally();
    let mut jobs_folded = 0u64;
    for (start, upto, token, _) in &segments {
        tally.merge(C::Tally::deserialize(token)?);
        jobs_folded += upto - start;
    }
    jobs_folded += records.len() as u64;
    for (index, record) in records {
        campaign.fold(&mut tally, index, C::Record::decode(&record.payload)?)?;
    }
    let summary = RefoldSummary {
        complete: jobs_folded == header.total_jobs,
        campaign: header.campaign,
        campaign_seed: header.campaign_seed,
        total_jobs: header.total_jobs,
        jobs_folded,
        journal_bytes,
        journals: paths.len(),
    };
    Ok((campaign, tally, summary))
}

/// Splits `value` on `sep` and parses each piece — the small-deserializer
/// helper every [`Mergeable`]/[`JournalPayload`] implementation in the
/// driver modules shares.
pub(crate) fn parse_fields<T: std::str::FromStr>(
    text: &str,
    sep: char,
    what: &str,
) -> Result<Vec<T>, JournalError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(sep)
        .map(|piece| {
            piece.parse::<T>().map_err(|_| {
                JournalError::Format(format!("bad {what} field {piece:?} in {text:?}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StagedJob;

    #[test]
    fn shard_ranges_tile_the_job_space_exactly() {
        for total in [0u64, 1, 2, 7, 97, 1000] {
            for count in [1u32, 2, 3, 5, 8, 13] {
                let mut covered = 0u64;
                let mut next = 0u64;
                for index in 0..count {
                    let spec = ShardSpec {
                        campaign_seed: 0,
                        total_jobs: total,
                        shard_index: index,
                        shard_count: count,
                    };
                    let range = spec.job_range();
                    assert_eq!(range.start, next, "gap/overlap at shard {index}/{count}");
                    next = range.end;
                    covered += spec.jobs();
                    // Balanced partition: sizes differ by at most one.
                    let ideal = total / count as u64;
                    assert!(spec.jobs() == ideal || spec.jobs() == ideal + 1);
                }
                assert_eq!(next, total);
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn shard_select_parses_and_validates() {
        assert_eq!(
            ShardSelect::parse("0/3").unwrap(),
            ShardSelect { index: 0, count: 3 }
        );
        assert_eq!(ShardSelect::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["3/3", "1/0", "x/2", "1", "", "1/2/3", "-1/2"] {
            assert!(ShardSelect::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A trivial journalable staged job for executor tests.
    #[derive(Debug)]
    struct Double(u64);

    impl StagedJob for Double {
        type Generated = u64;
        type Executed = u64;
        type Output = u64;
        fn generate(self) -> u64 {
            self.0
        }
        fn execute(generated: u64) -> u64 {
            generated * 2
        }
        fn judge(executed: u64) -> u64 {
            executed
        }
    }

    impl JournalPayload for u64 {
        fn encode(&self) -> String {
            self.to_string()
        }
        fn decode(text: &str) -> Result<Self, JournalError> {
            text.parse()
                .map_err(|_| JournalError::Format(format!("bad u64 payload {text:?}")))
        }
    }

    /// Every record folded, in fold order (job `g` records `2 * g`).
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Folded(Vec<u64>);

    impl Folded {
        fn sum(&self) -> u64 {
            self.0.iter().sum()
        }
    }

    impl Mergeable for Folded {
        fn merge(&mut self, other: Folded) {
            self.0.extend(other.0);
            self.0.sort_unstable();
        }
        fn serialize(&self) -> String {
            if self.0.is_empty() {
                return "-".to_string();
            }
            let values: Vec<String> = self.0.iter().map(u64::to_string).collect();
            values.join(",")
        }
        fn deserialize(text: &str) -> Result<Self, JournalError> {
            if text == "-" {
                return Ok(Folded::default());
            }
            Ok(Folded(parse_fields(text, ',', "folded")?))
        }
    }

    /// A campaign of `jobs` doubling jobs; job `g` is seeded `1000 + g`.
    /// It merges only `test:*` descriptors.
    #[derive(Debug)]
    struct Doubles {
        name: String,
        seed: u64,
        jobs: u64,
    }

    fn doubles(name: &str, seed: u64, jobs: u64) -> Doubles {
        Doubles {
            name: name.to_string(),
            seed,
            jobs,
        }
    }

    impl Campaign for Doubles {
        type Job = Double;
        type Record = u64;
        type Tally = Folded;
        type Context = ();

        fn descriptor(&self) -> String {
            self.name.clone()
        }
        fn parse(descriptor: &str, _: &()) -> Result<Doubles, JournalError> {
            if !descriptor.starts_with("test:") {
                return Err(JournalError::Format(format!(
                    "not a test campaign: {descriptor:?}"
                )));
            }
            Ok(doubles(descriptor, 0, 0))
        }
        fn seed(&self) -> u64 {
            self.seed
        }
        fn job_count(&self) -> u64 {
            self.jobs
        }
        fn job(&self, g: u64) -> (u64, Double) {
            (1000 + g, Double(g))
        }
        fn tally(&self) -> Folded {
            Folded::default()
        }
        fn fold(&self, tally: &mut Folded, g: u64, record: u64) -> Result<(), JournalError> {
            assert_eq!(record, 2 * g, "record folded under the wrong index");
            tally.0.push(record);
            Ok(())
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "clfuzz-shard-test-{}-{name}.log",
            std::process::id()
        ))
    }

    #[test]
    fn sharded_outputs_cover_the_slice_in_index_order() {
        let scheduler = Scheduler::new(4);
        let select = ShardSelect { index: 1, count: 3 };
        let run = run_shard(&scheduler, &doubles("test:exec", 9, 20), select, None).unwrap();
        let range = ShardSpec::select(9, 20, select).job_range();
        let expected: Vec<u64> = range.clone().map(|index| index * 2).collect();
        assert_eq!(run.aggregate.0, expected);
        assert_eq!(run.jobs, range.end - range.start);
        assert_eq!(run.metrics.jobs_resumed, 0);
        assert_eq!(run.metrics.jobs_replayed, range.end - range.start);
        assert_eq!(run.metrics.shard_count, 3);
    }

    #[test]
    fn journal_then_resume_skips_completed_jobs() {
        let path = temp_path("resume");
        let scheduler = Scheduler::new(2);
        let campaign = doubles("test:resume", 5, 10);
        let first = run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::create(&path)),
        )
        .unwrap();
        assert_eq!(first.metrics.jobs_replayed, 10);
        assert!(first.metrics.journal_bytes > 0);

        // Chop the journal down to its first 4 records plus half of the
        // fifth (a mid-write kill).
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: usize = text
            .lines()
            .take(5) // header + 4 records
            .map(|l| l.len() + 1)
            .sum();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((keep + 9) as u64)
            .unwrap();

        let resumed = run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::resume(&path)),
        )
        .unwrap();
        assert_eq!(resumed.metrics.jobs_resumed, 4);
        assert_eq!(resumed.metrics.jobs_replayed, 6);
        assert!(resumed.metrics.dropped_bytes > 0);
        assert_eq!(resumed.aggregate, first.aggregate);

        // The healed journal now covers the full job space.
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_journal_from_another_campaign() {
        let path = temp_path("mismatch");
        let scheduler = Scheduler::sequential();
        let run = |campaign: &Doubles, journal: JournalOptions| {
            run_shard(&scheduler, campaign, ShardSelect::whole(), Some(&journal))
        };
        run(&doubles("test:a", 5, 4), JournalOptions::create(&path)).unwrap();
        let err = run(&doubles("test:b", 5, 4), JournalOptions::resume(&path)).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        // Same campaign but different seed: also rejected.
        let err = run(&doubles("test:a", 6, 4), JournalOptions::resume(&path)).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refold_merges_shard_journals_into_one_aggregate() {
        let scheduler = Scheduler::new(3);
        let campaign = doubles("test:merge", 7, 11);
        let mut paths = Vec::new();
        for index in 0..3u32 {
            let path = temp_path(&format!("merge-{index}"));
            let select = ShardSelect { index, count: 3 };
            let journal = JournalOptions::create(&path);
            run_shard(&scheduler, &campaign, select, Some(&journal)).unwrap();
            paths.push(path);
        }
        let (_, tally, summary) = merge_journals::<Doubles>(&paths, &()).unwrap();
        assert_eq!(tally.0, (0..11u64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(summary.complete);
        assert_eq!(summary.jobs_folded, 11);
        assert_eq!(summary.journals, 3);

        // A subset of shards refolds too — partial, not complete.
        let (_, partial, summary) = merge_journals::<Doubles>(&paths[..2], &()).unwrap();
        assert!(!summary.complete);
        assert!(partial.sum() < tally.sum());
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn range_fold_checkpoints_compact_and_resume() {
        // A checkpointing fold run over a lease range: the compacted journal
        // must be tiny (header + one K line), an interrupted attempt
        // (stop_before) must resume from the checkpoint, and the final
        // aggregate must equal the plain fold.
        let path = temp_path("rangefold");
        let campaign = doubles("test:fold", 5, 40);
        let header = lease_header("test:fold", 5, 40, 2, 10..30);
        let expected: u64 = (10..30u64).map(|i| i * 2).sum();
        let policy = Some(CheckpointPolicy { every: 4 });

        // Attempt 1: stop before job 21 (fault-injection style truncation).
        let journal = JournalOptions::create(&path);
        let partial = run_range_fold(
            &Scheduler::new(3),
            &campaign,
            &header,
            Some(&journal),
            policy,
            Some(21),
        )
        .unwrap();
        assert_eq!(partial.jobs, 11);
        let loaded = load_journal(&path).unwrap();
        let cp = loaded.checkpoint.as_ref().unwrap();
        assert_eq!(cp.upto, 21);
        assert_eq!(cp.jobs, 11);
        assert!(
            loaded.records.is_empty(),
            "compaction folds all records into the final checkpoint"
        );

        // Attempt 2: resume to completion.
        let journal = JournalOptions::resume(&path);
        let run = run_range_fold(
            &Scheduler::new(3),
            &campaign,
            &header,
            Some(&journal),
            policy,
            None,
        )
        .unwrap();
        assert_eq!(run.aggregate.sum(), expected);
        assert_eq!(run.metrics.jobs_resumed, 11);
        assert_eq!(run.metrics.jobs_replayed, 9);
        assert_eq!(run.jobs, 20);

        // The compacted journal refolds (checkpoint consumed, no records).
        let (_, tally, summary) =
            merge_journals::<Doubles>(std::slice::from_ref(&path), &()).unwrap();
        assert_eq!(tally.sum(), expected);
        assert_eq!(summary.jobs_folded, 20);
        assert!(!summary.complete, "a 20-job lease of a 40-job space");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refold_mixes_checkpointed_and_plain_journals() {
        // Lease 0 journals [0, 6) with checkpoints; shard 1/2 journals
        // [6, 12) as plain records.  The refold must consume both forms and
        // match the whole-space fold.
        let lease_path = temp_path("mix-lease");
        let shard_path = temp_path("mix-shard");
        let campaign = doubles("test:mix", 3, 12);
        run_range_fold(
            &Scheduler::sequential(),
            &campaign,
            &lease_header("test:mix", 3, 12, 0, 0..6),
            Some(&JournalOptions::create(&lease_path)),
            Some(CheckpointPolicy { every: 2 }),
            None,
        )
        .unwrap();
        run_shard(
            &Scheduler::sequential(),
            &campaign,
            ShardSelect { index: 1, count: 2 },
            Some(&JournalOptions::create(&shard_path)),
        )
        .unwrap();
        let (_, tally, summary) =
            merge_journals::<Doubles>(&[lease_path.clone(), shard_path.clone()], &()).unwrap();
        assert_eq!(tally.sum(), (0..12u64).map(|i| i * 2).sum::<u64>());
        assert_eq!(summary.jobs_folded, 12);
        assert!(summary.complete);
        let _ = std::fs::remove_file(&lease_path);
        let _ = std::fs::remove_file(&shard_path);
    }

    #[test]
    fn refold_rejects_overlapping_checkpoint_segments() {
        // Two checkpointed journals over overlapping ranges cannot be
        // arbitrated (no per-job digests under a checkpoint) — refold must
        // refuse rather than double-count.
        let a = temp_path("overlap-a");
        let b = temp_path("overlap-b");
        let campaign = doubles("test:overlap", 9, 10);
        for (path, lease, range) in [(&a, 0u32, 0..6u64), (&b, 1, 4..10)] {
            run_range_fold(
                &Scheduler::sequential(),
                &campaign,
                &lease_header("test:overlap", 9, 10, lease, range),
                Some(&JournalOptions::create(path)),
                Some(CheckpointPolicy { every: 2 }),
                None,
            )
            .unwrap();
        }
        let err = merge_journals::<Doubles>(&[a.clone(), b.clone()], &()).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn refold_rejects_foreign_and_mixed_campaigns() {
        let scheduler = Scheduler::sequential();
        let paths: Vec<PathBuf> = ["test:one", "test:two", "other:one"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let path = temp_path(&format!("mixed-{i}"));
                let journal = JournalOptions::create(&path);
                run_shard(
                    &scheduler,
                    &doubles(name, 1, 3),
                    ShardSelect::whole(),
                    Some(&journal),
                )
                .unwrap();
                path
            })
            .collect();
        let err = merge_journals::<Doubles>(&paths[..2], &()).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)));
        // A campaign whose descriptor the merging campaign cannot parse.
        let err = merge_journals::<Doubles>(&paths[2..], &()).unwrap_err();
        assert!(matches!(err, JournalError::Format(_)));
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }
}
