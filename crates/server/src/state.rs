//! The daemon's job table, journaled through the PR-5 checksummed
//! appender.
//!
//! Every externally visible transition — submitted, attempt started,
//! attempt finished, drained — is one JSONL record in `jobs.jsonl`
//! under the state directory. The in-memory [`JobTable`] is always
//! reconstructible from that journal: a daemon killed mid-job restarts
//! with `--resume`, replays the records, and re-enqueues exactly the
//! jobs that never reached a *final* `job_done`. Because the record is
//! appended (fsync'd) *before* the side effect it describes is
//! acknowledged to a client, the journal can claim at most one
//! in-flight transition beyond reality — and the torn-tail tolerance
//! of [`read_journal`](sllt_obs::journal::read_journal) absorbs a record
//! cut mid-write by the kill.

use sllt_cts::FaultPlan;
use sllt_obs::journal::Journal;
use sllt_obs::Value;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

/// Journal schema version for `jobs.jsonl`.
pub const SCHEMA: u64 = 1;

/// Final job statuses as journaled and reported to clients.
pub const STATUS_OK: &str = "ok";
pub const STATUS_ERROR: &str = "error";
pub const STATUS_PANIC: &str = "panic";
pub const STATUS_TIMEOUT: &str = "timeout";
pub const STATUS_CANCELLED: &str = "cancelled";
/// The child blew through its `--mem-limit` address-space ceiling and
/// was killed by the allocator. Distinct from [`STATUS_PANIC`] — an OOM
/// against a fixed ceiling is deterministic, so it is final and never
/// retried.
pub const STATUS_OOM: &str = "oom";
/// Non-final: the daemon drained while this attempt was in flight; the
/// job checkpointed and will resume under `--resume`.
pub const STATUS_DRAINED: &str = "drained";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// An attempt is running in a child process.
    Running,
    /// Finished for good, with the final status string.
    Done(String),
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Stable id (`j<seq>`).
    pub id: String,
    /// Design name (or the submit-time name of a by-file design).
    pub design: String,
    /// Sanitized artifact path for by-file submissions.
    pub design_file: Option<PathBuf>,
    /// Constraint config name.
    pub config: String,
    /// Per-attempt wall-clock deadline, seconds.
    pub timeout_s: Option<f64>,
    /// Retry budget (total attempts = retries + 1).
    pub retries: u32,
    /// Optional fault word (test lever), as submitted and journaled.
    pub fault: Option<String>,
    /// Tenant id the submit was billed against (admission quotas).
    pub tenant: Option<String>,
    /// Admission order; also the resume re-enqueue order.
    pub seq: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts started so far.
    pub attempt: u32,
    /// Last failure detail, if any.
    pub detail: Option<String>,
    /// Parsed `RESULT` object from a successful child.
    pub result: Option<Value>,
    /// A client asked to cancel while the job was running.
    pub cancel_requested: bool,
}

impl JobRecord {
    /// The client-facing status object (`progress` is tailed from the
    /// job's progress journal by the server, not stored here).
    pub fn status_value(&self, progress: Option<f64>) -> Value {
        let state = match &self.state {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
        };
        let mut v = Value::obj()
            .with("job", self.id.as_str())
            .with("design", self.design.as_str())
            .with("config", self.config.as_str())
            .with("state", state)
            .with("attempt", u64::from(self.attempt));
        if let JobState::Done(status) = &self.state {
            v = v.with("status", status.as_str());
        }
        if let Some(t) = &self.tenant {
            v = v.with("tenant", t.as_str());
        }
        if let Some(d) = &self.detail {
            v = v.with("detail", d.as_str());
        }
        if let Some(p) = progress {
            v = v.with("progress", p);
        }
        v
    }
}

/// Outcome of a cancel request (drives the protocol reply).
#[derive(Debug, PartialEq)]
pub enum CancelOutcome {
    /// No such job.
    NotFound,
    /// Already finished; nothing to do.
    AlreadyDone(String),
    /// Was queued; now finally cancelled (journal record returned).
    Dequeued(Value),
    /// Is running; the server must fire the attempt's interrupt token.
    Interrupt,
}

/// In-memory job table. All mutating methods return the journal record
/// describing the transition — the caller appends it *before* acting on
/// the new state, which is what makes the table replayable.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    next_seq: u64,
}

impl JobTable {
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// The journal head record.
    pub fn meta() -> Value {
        Value::obj()
            .with("kind", "slltd-meta")
            .with("schema", SCHEMA)
    }

    /// The seal record written by a clean drain.
    pub fn drained_record() -> Value {
        Value::obj().with("kind", "drained")
    }

    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    pub fn get(&self, id: &str) -> Option<&JobRecord> {
        self.jobs.get(id)
    }

    /// All jobs in admission order.
    pub fn iter(&self) -> impl Iterator<Item = &JobRecord> {
        let mut v: Vec<&JobRecord> = self.jobs.values().collect();
        v.sort_by_key(|r| r.seq);
        v.into_iter()
    }

    /// Jobs not yet finally done (used by drain to decide when to stop
    /// waiting).
    pub fn unfinished(&self) -> usize {
        self.jobs
            .values()
            .filter(|r| !matches!(r.state, JobState::Done(_)))
            .count()
    }

    /// Admits a job. Returns `(id, journal_record)`. Capacity is the
    /// caller's concern — the table itself never rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        design: &str,
        design_file: Option<PathBuf>,
        config: &str,
        timeout_s: Option<f64>,
        retries: u32,
        fault: Option<String>,
        tenant: Option<String>,
    ) -> (String, Value) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let id = format!("j{seq}");
        let rec = JobRecord {
            id: id.clone(),
            design: design.to_string(),
            design_file,
            config: config.to_string(),
            timeout_s,
            retries,
            fault,
            tenant,
            seq,
            state: JobState::Queued,
            attempt: 0,
            detail: None,
            result: None,
            cancel_requested: false,
        };
        let journal = submitted_record(&rec);
        self.jobs.insert(id.clone(), rec);
        self.queue.push_back(id.clone());
        (id, journal)
    }

    /// Pops the next queued job for a worker, marking it running.
    pub fn pop_ready(&mut self) -> Option<String> {
        let id = self.queue.pop_front()?;
        if let Some(r) = self.jobs.get_mut(&id) {
            r.state = JobState::Running;
        }
        Some(id)
    }

    /// Starts the next attempt of a running job.
    pub fn mark_start(&mut self, id: &str, backoff_ms: u64) -> Value {
        let r = self.jobs.get_mut(id).expect("start of unknown job");
        r.attempt += 1;
        r.state = JobState::Running;
        Value::obj()
            .with("kind", "job_start")
            .with("job", id)
            .with("attempt", u64::from(r.attempt))
            .with("backoff_ms", backoff_ms)
    }

    /// Finishes an attempt. `is_final` ends the job; otherwise it stays
    /// running (the worker retries in place).
    pub fn mark_done(
        &mut self,
        id: &str,
        status: &str,
        is_final: bool,
        detail: Option<&str>,
        result: Option<Value>,
    ) -> Value {
        let r = self.jobs.get_mut(id).expect("done of unknown job");
        let mut v = Value::obj()
            .with("kind", "job_done")
            .with("job", id)
            .with("attempt", u64::from(r.attempt))
            .with("status", status)
            .with("final", is_final);
        if let Some(d) = detail {
            r.detail = Some(d.to_string());
            v = v.with("detail", d);
        }
        if let Some(res) = result {
            v = v.with("result", res.clone());
            r.result = Some(res);
        }
        if is_final {
            r.state = JobState::Done(status.to_string());
        }
        v
    }

    /// Handles a cancel request (see [`CancelOutcome`]).
    pub fn cancel(&mut self, id: &str) -> CancelOutcome {
        let Some(r) = self.jobs.get_mut(id) else {
            return CancelOutcome::NotFound;
        };
        match &r.state {
            JobState::Done(status) => CancelOutcome::AlreadyDone(status.clone()),
            JobState::Queued => {
                self.queue.retain(|q| q != id);
                // A queued job has attempt 0; cancelling it is final.
                CancelOutcome::Dequeued(self.mark_done(
                    id,
                    STATUS_CANCELLED,
                    true,
                    Some("cancelled while queued"),
                    None,
                ))
            }
            JobState::Running => {
                r.cancel_requested = true;
                CancelOutcome::Interrupt
            }
        }
    }

    /// Rebuilds the table from a replayed journal. Jobs without a final
    /// `job_done` are re-enqueued in admission order; their ids are
    /// returned for logging.
    ///
    /// # Errors
    ///
    /// A message when the journal head is missing or from a different
    /// schema.
    pub fn replay(journal: &Journal) -> Result<(JobTable, Vec<String>), String> {
        let head = journal
            .records
            .first()
            .ok_or("jobs journal is empty (no meta record)")?;
        if head.get("kind").and_then(Value::as_str) != Some("slltd-meta")
            || head.get("schema").and_then(Value::as_u64) != Some(SCHEMA)
        {
            return Err(format!(
                "jobs journal has unexpected head: {}",
                head.encode()
            ));
        }
        let mut t = JobTable::new();
        for rec in &journal.records[1..] {
            t.apply(rec)?;
        }
        // Everything not finally done goes back on the queue, oldest
        // submission first.
        let mut pending: Vec<(u64, String)> = t
            .jobs
            .values()
            .filter(|r| !matches!(r.state, JobState::Done(_)))
            .map(|r| (r.seq, r.id.clone()))
            .collect();
        pending.sort();
        t.queue = pending.iter().map(|(_, id)| id.clone()).collect();
        for (_, id) in &pending {
            let r = t.jobs.get_mut(id).expect("pending job exists");
            r.state = JobState::Queued;
            r.cancel_requested = false;
        }
        let requeued = pending.into_iter().map(|(_, id)| id).collect();
        Ok((t, requeued))
    }

    /// The minimal record sequence that replays to this exact table:
    /// one `job_submitted` per job, one `job_start` carrying the final
    /// attempt count when any attempt ran, and one final `job_done` for
    /// terminally finished jobs. Intermediate retries, non-final drain
    /// rows, and `drained` seals are dropped — they carry no state a
    /// replay keeps. `--resume` rewrites `jobs.jsonl` from this, so a
    /// long-lived daemon's journal stays proportional to its job table
    /// instead of its history.
    pub fn compact_records(&self) -> Vec<Value> {
        let mut out = vec![JobTable::meta()];
        for r in self.iter() {
            out.push(submitted_record(r));
            if r.attempt > 0 {
                out.push(
                    Value::obj()
                        .with("kind", "job_start")
                        .with("job", r.id.as_str())
                        .with("attempt", u64::from(r.attempt))
                        .with("backoff_ms", 0u64),
                );
            }
            if let JobState::Done(status) = &r.state {
                let mut v = Value::obj()
                    .with("kind", "job_done")
                    .with("job", r.id.as_str())
                    .with("attempt", u64::from(r.attempt))
                    .with("status", status.as_str())
                    .with("final", true);
                if let Some(d) = &r.detail {
                    v = v.with("detail", d.as_str());
                }
                if let Some(res) = &r.result {
                    v = v.with("result", res.clone());
                }
                out.push(v);
            }
        }
        out
    }

    fn apply(&mut self, rec: &Value) -> Result<(), String> {
        let kind = rec
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("journal record without kind: {}", rec.encode()))?;
        let job_id = || {
            rec.get("job")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} record without job id"))
        };
        match kind {
            "job_submitted" => {
                let get = |k: &str| rec.get(k).and_then(Value::as_str);
                let id = job_id()?;
                let seq = rec
                    .get("seq")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("job_submitted without seq: {}", rec.encode()))?;
                let fault = match get("fault") {
                    Some(s) => Some(s.parse::<FaultPlan>().map(|_| s.to_string())?),
                    None => None,
                };
                let r = JobRecord {
                    id: id.clone(),
                    design: get("design").unwrap_or("?").to_string(),
                    design_file: get("design_file").map(PathBuf::from),
                    config: get("config").unwrap_or("base").to_string(),
                    timeout_s: rec.get("timeout_s").and_then(Value::as_f64),
                    retries: rec.get("retries").and_then(Value::as_u64).unwrap_or(0) as u32,
                    fault,
                    tenant: get("tenant").map(str::to_string),
                    seq,
                    state: JobState::Queued,
                    attempt: 0,
                    detail: None,
                    result: None,
                    cancel_requested: false,
                };
                self.next_seq = self.next_seq.max(seq);
                self.jobs.insert(id, r);
            }
            "job_start" => {
                let id = job_id()?;
                if let Some(r) = self.jobs.get_mut(&id) {
                    r.state = JobState::Running;
                    r.attempt = rec.get("attempt").and_then(Value::as_u64).unwrap_or(0) as u32;
                }
            }
            "job_done" => {
                let id = job_id()?;
                if let Some(r) = self.jobs.get_mut(&id) {
                    if let Some(d) = rec.get("detail").and_then(Value::as_str) {
                        r.detail = Some(d.to_string());
                    }
                    if let Some(res) = rec.get("result") {
                        r.result = Some(res.clone());
                    }
                    let is_final = rec.get("final") == Some(&Value::Bool(true));
                    if is_final {
                        let status = rec
                            .get("status")
                            .and_then(Value::as_str)
                            .unwrap_or(STATUS_ERROR);
                        r.state = JobState::Done(status.to_string());
                    }
                }
            }
            // A clean seal from a previous life; no table effect.
            "drained" => {}
            other => return Err(format!("unknown journal record kind {other:?}")),
        }
        Ok(())
    }
}

fn submitted_record(r: &JobRecord) -> Value {
    let mut v = Value::obj()
        .with("kind", "job_submitted")
        .with("job", r.id.as_str())
        .with("design", r.design.as_str())
        .with("config", r.config.as_str())
        .with("retries", u64::from(r.retries))
        .with("seq", r.seq);
    if let Some(p) = &r.design_file {
        v = v.with("design_file", p.display().to_string());
    }
    if let Some(t) = r.timeout_s {
        v = v.with("timeout_s", t);
    }
    if let Some(f) = &r.fault {
        v = v.with("fault", f.as_str());
    }
    if let Some(t) = &r.tenant {
        v = v.with("tenant", t.as_str());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_obs::journal::{read_journal, DurableAppender};

    fn journal_of(records: &[Value]) -> Journal {
        let dir = std::env::temp_dir().join(format!(
            "sllt_state_{}_{}",
            std::process::id(),
            records.len()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let mut app = DurableAppender::create(&path).unwrap();
        for r in records {
            app.append(r).unwrap();
        }
        drop(app);
        let j = read_journal(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        j
    }

    #[test]
    fn submit_pop_done_lifecycle() {
        let mut t = JobTable::new();
        let (id, rec) = t.submit("grid36", None, "base", Some(5.0), 2, None, None);
        assert_eq!(id, "j1");
        assert_eq!(
            rec.get("kind").and_then(Value::as_str),
            Some("job_submitted")
        );
        assert_eq!(t.queued_len(), 1);

        assert_eq!(t.pop_ready().as_deref(), Some("j1"));
        assert_eq!(t.queued_len(), 0);
        let start = t.mark_start(&id, 0);
        assert_eq!(start.get("attempt").and_then(Value::as_u64), Some(1));

        let done = t.mark_done(&id, STATUS_OK, true, None, Some(Value::obj()));
        assert_eq!(done.get("final"), Some(&Value::Bool(true)));
        assert_eq!(t.get(&id).unwrap().state, JobState::Done(STATUS_OK.into()));
        assert_eq!(t.unfinished(), 0);
    }

    #[test]
    fn cancel_covers_all_three_states() {
        let mut t = JobTable::new();
        let (q, _) = t.submit("grid36", None, "base", None, 0, None, None);
        let (r, _) = t.submit("grid48", None, "base", None, 0, None, None);
        assert_eq!(t.cancel("nope"), CancelOutcome::NotFound);

        // Queued: removed and finally cancelled.
        match t.cancel(&q) {
            CancelOutcome::Dequeued(rec) => {
                assert_eq!(
                    rec.get("status").and_then(Value::as_str),
                    Some(STATUS_CANCELLED)
                );
            }
            other => panic!("queued cancel gave {other:?}"),
        }
        assert_eq!(t.queued_len(), 1, "cancelled job left the queue");

        // Running: flagged for interrupt.
        // (pop_ready returns r since q was cancelled out of the queue.)
        assert_eq!(t.pop_ready().as_deref(), Some(r.as_str()));
        t.mark_start(&r, 0);
        assert_eq!(t.cancel(&r), CancelOutcome::Interrupt);
        assert!(t.get(&r).unwrap().cancel_requested);

        // Done: reported as such.
        t.mark_done(&r, STATUS_CANCELLED, true, None, None);
        assert_eq!(
            t.cancel(&r),
            CancelOutcome::AlreadyDone(STATUS_CANCELLED.into())
        );
    }

    #[test]
    fn replay_reconstructs_and_requeues_unfinished() {
        let mut live = JobTable::new();
        let mut records = vec![JobTable::meta()];
        let (a, rec) = live.submit("grid36", None, "base", None, 1, None, None);
        records.push(rec);
        let (b, rec) = live.submit(
            "grid48",
            None,
            "tight",
            None,
            0,
            Some("sleep:10".into()),
            Some("alice".into()),
        );
        records.push(rec);
        let (c, rec) = live.submit("grid64", None, "nosa", None, 0, None, None);
        records.push(rec);

        // a finishes, b is mid-flight (start, then a non-final drain
        // record), c never starts. a's `job_done` is in the older format,
        // which carried a `wall_s` member that replay ignores.
        live.pop_ready();
        records.push(live.mark_start(&a, 0));
        live.mark_done(&a, STATUS_OK, true, None, Some(Value::obj()));
        records.push(
            Value::obj()
                .with("kind", "job_done")
                .with("job", a.as_str())
                .with("attempt", 1u64)
                .with("status", STATUS_OK)
                .with("final", true)
                .with("wall_s", 0.0)
                .with("result", Value::obj()),
        );
        live.pop_ready();
        records.push(live.mark_start(&b, 0));
        records.push(live.mark_done(&b, STATUS_DRAINED, false, Some("draining"), None));
        records.push(JobTable::drained_record());

        let (t, requeued) = JobTable::replay(&journal_of(&records)).unwrap();
        assert_eq!(requeued, vec![b.clone(), c.clone()]);
        assert_eq!(t.get(&a).unwrap().state, JobState::Done(STATUS_OK.into()));
        assert_eq!(t.get(&b).unwrap().state, JobState::Queued);
        assert_eq!(t.get(&b).unwrap().fault.as_deref(), Some("sleep:10"));
        assert_eq!(t.get(&c).unwrap().state, JobState::Queued);
        // New submissions continue the id sequence.
        let mut t = t;
        let (next, _) = t.submit("grid36", None, "base", None, 0, None, None);
        assert_eq!(next, "j4");
    }

    #[test]
    fn replay_rejects_missing_or_foreign_head() {
        let j = journal_of(&[Value::obj().with("kind", "suite-meta")]);
        assert!(JobTable::replay(&j).is_err());
    }

    #[test]
    fn replay_refuses_a_malformed_fault_word() {
        let row = Value::obj()
            .with("kind", "job_submitted")
            .with("job", "j1")
            .with("design", "grid36")
            .with("config", "base")
            .with("retries", 0u64)
            .with("seq", 1u64)
            .with("fault", "sleep:soon");
        let err = JobTable::replay(&journal_of(&[JobTable::meta(), row])).unwrap_err();
        assert!(err.contains("sleep:<ms>"), "{err}");
    }
}
