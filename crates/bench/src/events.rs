//! Structured execution telemetry for sweeps.
//!
//! Two surfaces, both opt-in from the CLI:
//!
//! - `--events-out PATH`: an append-only JSONL span log. Every line is
//!   one self-contained object `{"t_us":..,"event":..,...}` — cell
//!   start/end (with replay/resumed phase and duration), resume
//!   hits, record-phase spans, sweep boundaries.
//!   One event per line means a torn write (crash mid-append) damages
//!   at most the final line, same contract as the sweep journal.
//! - `--metrics-out PATH`: a Prometheus-style text exposition rewritten
//!   after every sweep — the scrape surface a future `arvi-serve`
//!   schedules against. Counters are cumulative over the process, so a
//!   binary that runs several grids (e.g. `experiments`) exports the
//!   union.
//!
//! Telemetry never fails a sweep: emission errors warn on stderr and
//! the run continues. Only *opening* the sinks (at flag-parse time) is
//! an error the user sees as such.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// Cumulative sweep metrics behind the Prometheus export.
#[derive(Debug, Default)]
struct MetricsAgg {
    sweeps: u64,
    /// Cells by normalized outcome label, first-seen order.
    cells: Vec<(String, u64)>,
    cell_seconds_sum: f64,
    cell_seconds_count: u64,
    resumed: u64,
    record_seconds: f64,
}

fn bump(rows: &mut Vec<(String, u64)>, key: &str) {
    match rows.iter_mut().find(|(k, _)| k == key) {
        Some((_, n)) => *n += 1,
        None => rows.push((key.to_string(), 1)),
    }
}

/// The telemetry sinks a resilient sweep reports into: an optional
/// event log and an optional metrics file. Shared (`Arc`) between the
/// sweep layer and the trace recorder; all methods are no-ops for
/// sinks that were not requested.
#[derive(Debug, Default)]
pub struct SweepTelemetry {
    events: Option<EventLog>,
    metrics_path: Option<PathBuf>,
    agg: Mutex<MetricsAgg>,
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
            agg: Mutex::new(MetricsAgg::default()),
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

    /// Records one finished cell: outcome label (normalized, e.g.
    /// `"ok"`), duration if known, and whether it was a resume hit.
    pub fn cell_finished(&self, outcome: &str, duration: Option<Duration>, resumed: bool) {
        let mut agg = self.agg.lock().unwrap();
        bump(&mut agg.cells, outcome);
        if let Some(d) = duration {
            agg.cell_seconds_sum += d.as_secs_f64();
            agg.cell_seconds_count += 1;
        }
        if resumed {
            agg.resumed += 1;
        }
    }

    /// Records (and logs) a completed trace-record phase.
    pub fn record_phase(&self, workloads: usize, elapsed: Duration) {
        self.agg.lock().unwrap().record_seconds += elapsed.as_secs_f64();
        self.event(
            "record_end",
            vec![
                ("workloads".to_string(), Json::Num(workloads as f64)),
                ("dur_us".to_string(), Json::Num(elapsed.as_micros() as f64)),
            ],
        );
    }

    /// Marks one sweep finished and rewrites the metrics file (if
    /// requested) with the cumulative counters.
    pub fn sweep_finished(&self) {
        self.agg.lock().unwrap().sweeps += 1;
        if let Some(path) = &self.metrics_path {
            if let Err(e) = write_text(path, &self.render_prometheus()) {
                eprintln!("warning: metrics write failed ({e}); continuing");
            }
        }
    }

    /// The cumulative counters in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let agg = self.agg.lock().unwrap();
        let mut out = String::new();
        out.push_str("# HELP arvi_sweeps_total Sweeps completed by this process.\n");
        out.push_str("# TYPE arvi_sweeps_total counter\n");
        let _ = writeln!(out, "arvi_sweeps_total {}", agg.sweeps);
        out.push_str("# HELP arvi_sweep_cells_total Grid cells by outcome.\n");
        out.push_str("# TYPE arvi_sweep_cells_total counter\n");
        for (label, n) in &agg.cells {
            let _ = writeln!(out, "arvi_sweep_cells_total{{outcome=\"{label}\"}} {n}");
        }
        out.push_str("# HELP arvi_sweep_cell_duration_seconds Simulated-cell wall time.\n");
        out.push_str("# TYPE arvi_sweep_cell_duration_seconds summary\n");
        let _ = writeln!(
            out,
            "arvi_sweep_cell_duration_seconds_sum {:.6}",
            agg.cell_seconds_sum
        );
        let _ = writeln!(
            out,
            "arvi_sweep_cell_duration_seconds_count {}",
            agg.cell_seconds_count
        );
        out.push_str("# HELP arvi_sweep_resumed_cells_total Cells satisfied from a journal.\n");
        out.push_str("# TYPE arvi_sweep_resumed_cells_total counter\n");
        let _ = writeln!(out, "arvi_sweep_resumed_cells_total {}", agg.resumed);
        out.push_str("# HELP arvi_record_phase_seconds_total Trace-record wall time.\n");
        out.push_str("# TYPE arvi_record_phase_seconds_total counter\n");
        let _ = writeln!(
            out,
            "arvi_record_phase_seconds_total {:.6}",
            agg.record_seconds
        );
        out
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

    #[test]
    fn prometheus_export_accumulates() {
        let t = SweepTelemetry::from_paths(None, None).unwrap();
        t.cell_finished("ok", Some(Duration::from_millis(10)), false);
        t.cell_finished("ok", Some(Duration::from_millis(20)), true);
        t.cell_finished("panicked", None, false);
        t.record_phase(3, Duration::from_millis(5));
        t.sweep_finished();
        let text = t.render_prometheus();
        assert!(text.contains("arvi_sweeps_total 1"), "{text}");
        assert!(
            text.contains("arvi_sweep_cells_total{outcome=\"ok\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("arvi_sweep_cells_total{outcome=\"panicked\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("arvi_sweep_cell_duration_seconds_count 2"),
            "{text}"
        );
        assert!(text.contains("arvi_sweep_resumed_cells_total 1"), "{text}");
        assert!(
            text.contains("arvi_record_phase_seconds_total 0.005000"),
            "{text}"
        );
    }
}
