//! The sweep server's wire protocol.
//!
//! One request or response per line, as JSON (NDJSON): the client writes
//! a [`Request`] line, the daemon answers with exactly one [`Response`]
//! line, and the connection stays open for further exchanges. Both
//! directions use the deterministic compact writer
//! ([`vcoma::metrics::json::to_json_line`]) and the strict reader
//! ([`vcoma::metrics::json::from_json_str`]).
//!
//! The message shapes are deliberately **flat**: one struct per
//! direction, an `op`/`state` discriminator string, and `Option` fields
//! that each operation fills or leaves `null`. The Rust client writes
//! every field, which keeps a transcript self-describing and greppable;
//! the readers take an absent `Option` field as `None`, so another client
//! may send only what its operation needs (`{"op":"ping"}` is a complete
//! request). A missing non-`Option` field (`op`) is an error.
//!
//! Operations:
//!
//! | `op` | request fields | response fields |
//! |---|---|---|
//! | `ping` | — | `fingerprint` |
//! | `submit` | `artifacts`, `scale`, `nodes`, `seed`, `schemes` | `job`, `state` |
//! | `status` | `job` | `job`, `state`, progress counters (`points_done`/`points_total`, `cache_hits`, `simulated`, `cycles_per_sec`) |
//! | `fetch` | `job` | `files` (name + CSV bytes per table) |
//! | `stats` | — | `uptime_seconds`, job-phase counts (`jobs_queued`/`jobs_running`/`jobs_done`/`jobs_failed`), store-wide `store_hits`/`store_misses`/`store_writes` |
//! | `shutdown` | — | `ok` then the daemon exits |

use serde::{Deserialize, Serialize};

/// Current protocol version, echoed by `ping`. Bump on any wire change.
///
/// Version history: `1` — initial daemon protocol (PR 9); `2` — live
/// progress (`points_total`, `cycles_per_sec`) on `status` and daemon
/// uptime plus job-phase counts on `stats`.
pub const PROTOCOL_VERSION: u64 = 2;

/// One client request line. `op` selects the operation; the remaining
/// fields are that operation's parameters (unused ones stay `None`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// `ping` | `submit` | `status` | `fetch` | `stats` | `shutdown`.
    pub op: String,
    /// Job id (`status`, `fetch`).
    pub job: Option<String>,
    /// Artifact names to run (`submit`); `None` means every standard
    /// artifact, in default order.
    pub artifacts: Option<Vec<String>>,
    /// Workload scale (`submit`); `None` means the daemon's default.
    pub scale: Option<f64>,
    /// Machine node count (`submit`); `None` means the paper's 32.
    pub nodes: Option<u64>,
    /// Master seed (`submit`); `None` means the harness default.
    pub seed: Option<u64>,
    /// `--schemes`-style comma-separated scheme filter (`submit`).
    pub schemes: Option<String>,
}

impl Request {
    /// A request with every parameter empty; callers fill what their
    /// operation needs.
    pub fn new(op: &str) -> Self {
        Request {
            op: op.to_string(),
            job: None,
            artifacts: None,
            scale: None,
            nodes: None,
            seed: None,
            schemes: None,
        }
    }
}

/// One rendered artifact table, named by the file stem a direct run
/// would save it under (`table2`, `fig8_radix`, …).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsvFile {
    /// File stem; the client writes `<name>.csv`.
    pub name: String,
    /// The CSV bytes — identical to a direct `--out` run's file.
    pub contents: String,
}

/// One daemon response line. `ok` is the success flag; `error` carries
/// the failure message when `ok` is false; the rest is per-operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Failure message when `ok` is false.
    pub error: Option<String>,
    /// Protocol version (`ping`).
    pub protocol: Option<u64>,
    /// The daemon's code fingerprint (`ping`, `stats`).
    pub fingerprint: Option<String>,
    /// Job id (`submit`, `status`).
    pub job: Option<String>,
    /// `queued` | `running` | `done` | `failed` (`submit`, `status`).
    pub state: Option<String>,
    /// Artifacts finished so far (`status`).
    pub artifacts_done: Option<u64>,
    /// Artifacts in the job (`status`).
    pub artifacts_total: Option<u64>,
    /// Simulation points resolved so far — store hits + fresh runs
    /// (`status`).
    pub points_done: Option<u64>,
    /// Grid points announced by the sweeps started so far (`status`).
    /// Grows as the job's artifacts begin their sweeps, so it reaches
    /// the job's true total only once the last artifact has started.
    pub points_total: Option<u64>,
    /// Of `points_done`, how many were served from the store (`status`).
    pub cache_hits: Option<u64>,
    /// Of `points_done`, how many were freshly simulated (`status`).
    pub simulated: Option<u64>,
    /// Simulated cycles retired per wall-clock second of the job so far
    /// (`status`); `0` while queued or when everything came from the
    /// store.
    pub cycles_per_sec: Option<f64>,
    /// Store-wide load hits since daemon start (`stats`).
    pub store_hits: Option<u64>,
    /// Store-wide load misses since daemon start (`stats`).
    pub store_misses: Option<u64>,
    /// Store-wide envelope writes since daemon start (`stats`).
    pub store_writes: Option<u64>,
    /// Jobs currently queued (`stats`).
    pub jobs_queued: Option<u64>,
    /// Jobs currently running (`stats`).
    pub jobs_running: Option<u64>,
    /// Jobs finished successfully since daemon start (`stats`).
    pub jobs_done: Option<u64>,
    /// Jobs failed since daemon start (`stats`).
    pub jobs_failed: Option<u64>,
    /// Whole seconds since the daemon started (`stats`).
    pub uptime_seconds: Option<u64>,
    /// The job's rendered tables (`fetch`).
    pub files: Option<Vec<CsvFile>>,
}

impl Response {
    /// A bare success response; callers fill the per-operation fields.
    pub fn success() -> Self {
        Response {
            ok: true,
            error: None,
            protocol: None,
            fingerprint: None,
            job: None,
            state: None,
            artifacts_done: None,
            artifacts_total: None,
            points_done: None,
            points_total: None,
            cache_hits: None,
            simulated: None,
            cycles_per_sec: None,
            store_hits: None,
            store_misses: None,
            store_writes: None,
            jobs_queued: None,
            jobs_running: None,
            jobs_done: None,
            jobs_failed: None,
            uptime_seconds: None,
            files: None,
        }
    }

    /// A failure response carrying `message`.
    pub fn failure(message: impl Into<String>) -> Self {
        let mut r = Response::success();
        r.ok = false;
        r.error = Some(message.into());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma::metrics::json::{from_json_str, to_json_line};

    #[test]
    fn request_round_trips_over_the_wire() {
        let mut req = Request::new("submit");
        req.artifacts = Some(vec!["table2".to_string(), "fig8".to_string()]);
        req.scale = Some(0.01);
        req.nodes = Some(32);
        req.schemes = Some("l0_tlb,vcoma".to_string());
        let line = to_json_line(&req).expect("serializes");
        assert!(!line.contains('\n'), "one line per message");
        let back: Request = from_json_str(&line).expect("parses");
        assert_eq!(back.op, "submit");
        assert_eq!(back.artifacts.as_deref(), Some(&["table2".to_string(), "fig8".to_string()][..]));
        assert_eq!(back.scale, Some(0.01));
        assert_eq!(back.seed, None);
        assert_eq!(back.schemes.as_deref(), Some("l0_tlb,vcoma"));
    }

    #[test]
    fn response_round_trips_with_files() {
        let mut resp = Response::success();
        resp.job = Some("ab12".to_string());
        resp.state = Some("done".to_string());
        resp.cache_hits = Some(30);
        resp.files = Some(vec![CsvFile {
            name: "table2".to_string(),
            contents: "SYSTEM,A\nRADIX,1\n".to_string(),
        }]);
        let line = to_json_line(&resp).expect("serializes");
        assert!(!line.contains('\n'), "embedded newlines are escaped");
        let back: Response = from_json_str(&line).expect("parses");
        assert!(back.ok);
        assert_eq!(back.cache_hits, Some(30));
        let files = back.files.expect("files survive");
        assert_eq!(files[0].name, "table2");
        assert_eq!(files[0].contents, "SYSTEM,A\nRADIX,1\n");
    }

    #[test]
    fn progress_and_stats_fields_round_trip() {
        let mut resp = Response::success();
        resp.points_done = Some(42);
        resp.points_total = Some(96);
        resp.cycles_per_sec = Some(1.25e7);
        resp.jobs_queued = Some(1);
        resp.jobs_running = Some(1);
        resp.jobs_done = Some(3);
        resp.jobs_failed = Some(0);
        resp.uptime_seconds = Some(17);
        let line = to_json_line(&resp).expect("serializes");
        let back: Response = from_json_str(&line).expect("parses");
        assert_eq!(back.points_done, Some(42));
        assert_eq!(back.points_total, Some(96));
        assert_eq!(back.cycles_per_sec, Some(1.25e7));
        assert_eq!(back.jobs_done, Some(3));
        assert_eq!(back.uptime_seconds, Some(17));
        assert_eq!(back.cache_hits, None);
    }

    #[test]
    fn failure_carries_the_message() {
        let resp = Response::failure("unknown job 'zz'");
        let line = to_json_line(&resp).expect("serializes");
        let back: Response = from_json_str(&line).expect("parses");
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("unknown job 'zz'"));
        assert!(back.files.is_none());
    }
}
