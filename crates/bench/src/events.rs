//! Structured execution telemetry for sweeps.
//!
//! Two surfaces, both opt-in from the CLI:
//!
//! - `--events-out PATH`: an append-only JSONL span log. Every line is
//!   one self-contained object `{"t_us":..,"event":..,...}` — cell
//!   start/end (with replay/derived/resumed phase and duration),
//!   record-phase spans, sweep boundaries.
//!   One event per line means a torn write (crash mid-append) damages
//!   at most the final line, same contract as the sweep journal.
//! - `--metrics-out PATH`: a Prometheus-style text exposition written
//!   once, at sweep end, from the run's outcomes
//!   ([`crate::RunTally::prometheus`]): cells by outcome, the simulated
//!   cells' durations, resumed cells and the record phase.
//!
//! Telemetry never fails a sweep: emission errors warn on stderr and
//! the run continues. Only *opening* the sinks (at flag-parse time) is
//! an error the user sees as such.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::{io_error_at, write_text, Json};

/// An append-only JSONL event log. Timestamps are microseconds since
/// the log was opened (monotonic clock — wall time would make reruns
/// incomparable and is deliberately absent).
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    start: Instant,
    file: Mutex<std::fs::File>,
}

impl EventLog {
    /// Opens (truncating) the log at `path`, creating missing parent
    /// directories. Errors carry the offending path.
    pub fn create(path: &Path) -> std::io::Result<EventLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
        }
        let file = std::fs::File::create(path).map_err(|e| io_error_at(path, e))?;
        Ok(EventLog {
            path: path.to_path_buf(),
            start: Instant::now(),
            file: Mutex::new(file),
        })
    }

    /// Where the log writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event line. Write failures warn rather than fail —
    /// losing telemetry must never lose sweep results.
    pub fn emit(&self, event: &str, fields: Vec<(String, Json)>) {
        let mut obj = vec![
            (
                "t_us".to_string(),
                Json::Num(self.start.elapsed().as_micros() as f64),
            ),
            ("event".to_string(), Json::str(event)),
        ];
        obj.extend(fields);
        let line = Json::Obj(obj).render_compact();
        let mut f = self.file.lock().unwrap();
        if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
            eprintln!(
                "warning: event log write failed ({}: {e}); continuing",
                self.path.display()
            );
        }
    }
}

/// The telemetry sinks a grid run reports into: an optional event log
/// and an optional metrics path. Shared (`Arc`) between the sweep layer
/// and the trace recorder; all methods are no-ops for sinks that were
/// not requested.
#[derive(Debug, Default)]
pub struct SweepTelemetry {
    events: Option<EventLog>,
    metrics_path: Option<PathBuf>,
}

impl SweepTelemetry {
    /// Builds telemetry from the CLI paths; `None` for both is a valid
    /// (fully inert) instance.
    pub fn from_paths(
        events: Option<&Path>,
        metrics: Option<&Path>,
    ) -> std::io::Result<SweepTelemetry> {
        Ok(SweepTelemetry {
            events: events.map(EventLog::create).transpose()?,
            metrics_path: metrics.map(Path::to_path_buf),
        })
    }

    /// The event log, if one was requested.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Emits an event (no-op without an event log).
    pub fn event(&self, name: &str, fields: Vec<(String, Json)>) {
        if let Some(log) = &self.events {
            log.emit(name, fields);
        }
    }

    /// Writes `text`, a run's metrics ([`crate::RunTally::prometheus`]),
    /// to the metrics file, if one was requested.
    pub fn write_metrics(&self, text: &str) {
        if let Some(path) = &self.metrics_path {
            if let Err(e) = write_text(path, text) {
                eprintln!("warning: metrics write failed ({e}); continuing");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("arvi-events-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn event_lines_are_json() {
        let dir = tmpdir("lines");
        let path = dir.join("nested/events.jsonl");
        let log = EventLog::create(&path).expect("create makes parents");
        log.emit("sweep_start", vec![("cells".to_string(), Json::Num(4.0))]);
        log.emit("cell_end", vec![("outcome".to_string(), Json::str("ok"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("valid JSON line");
            assert!(v.num("t_us").is_some(), "{line}");
            assert!(v.get("event").is_some(), "{line}");
        }
        assert_eq!(Json::parse(lines[0]).unwrap().num("cells"), Some(4.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_error_names_the_path() {
        // A path whose parent is a regular file cannot be created.
        let dir = tmpdir("err");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("file");
        std::fs::write(&blocker, "x").unwrap();
        let bad = blocker.join("events.jsonl");
        let err = EventLog::create(&bad).unwrap_err();
        assert!(
            err.to_string().contains("file"),
            "error should name the path: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
