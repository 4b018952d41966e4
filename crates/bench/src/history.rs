//! Bench-trajectory analytics over the checked-in `BENCH_PR<N>.json`
//! reports.
//!
//! Every PR lands a report; this module parses all of them, tracks each
//! metric *across* PRs, and flags the latest PR when a metric moved
//! outside its noise band — the trend-level complement to
//! `perf_guard`'s absolute baseline gate (which only sees one report at
//! a time and cannot tell "slow drift" from "this PR regressed it").
//!
//! Two kinds of metric share the one trail:
//!
//! * each numeric `guardrail.<key>` of a `perf_report` JSON, under its
//!   key;
//! * each end-to-end metric of a committed `perfbench` object (the repo
//!   benchmark's paired parent/change runs), as `<workload>/<metric>`,
//!   valued at the change side's median
//!   (`perfbench.end_to_end.<workload>.<metric>.change.median`). These
//!   medians are host-normalised, and lower is better.
//!
//! Only metrics the newest report carries are judged: a retired metric
//! keeps its history column but never flags.
//!
//! Noise bands are derived from the history itself: a metric's band is
//! the wider of the baseline's warn band and twice the coefficient of
//! variation of its historical values (excluding the newest point, so
//! the point being judged does not widen its own band).
//!
//! Files are ordered by the PR number in the *filename*, not the `pr`
//! field inside — at least one checked-in report carries a stale field.

use std::path::Path;

use arvi_stats::{change_percent, cv_percent};

use crate::report::{io_error_at, read_json, Json};

/// One parsed `BENCH_PR<N>.json`.
#[derive(Debug)]
pub struct BenchFile {
    /// PR number, parsed from the filename.
    pub pr: u64,
    /// The filename (for messages).
    pub file: String,
    /// The parsed report.
    pub json: Json,
}

/// One metric's trajectory across the PR history.
#[derive(Debug)]
pub struct MetricTrend {
    /// Metric key: a guardrail key, or `<workload>/<metric>` for a
    /// perfbench end-to-end metric.
    pub key: String,
    /// Whether larger values are better (from the baseline's
    /// `direction`, else inferred: `speedup` keys are higher-is-better,
    /// everything else lower).
    pub higher_is_better: bool,
    /// The noise band in percent: `max(baseline warn_pct, 2 × CV)` of
    /// the historical values.
    pub band_pct: f64,
    /// `(pr, value)` per history file, `None` where the report predates
    /// the metric.
    pub series: Vec<(u64, Option<f64>)>,
    /// Percent change of the newest value vs the previous one
    /// (positive = increased), `None` without two points or when the
    /// metric is retired.
    pub change_pct: Option<f64>,
    /// Whether the newest change moves in the worse direction beyond
    /// the band.
    pub flagged: bool,
}

impl MetricTrend {
    /// Whether the newest report no longer carries the metric.
    pub fn retired(&self) -> bool {
        self.series.last().is_some_and(|(_, v)| v.is_none())
    }
}

/// The full trend report over a PR history.
#[derive(Debug)]
pub struct HistoryReport {
    /// PR numbers in history order.
    pub prs: Vec<u64>,
    /// One trend per metric, in first-appearance order.
    pub trends: Vec<MetricTrend>,
}

/// Loads every `BENCH_PR<N>.json` under `dir`, ordered by the filename
/// PR number. Non-matching files (`BENCH_BASELINE.json`, sources) are
/// ignored; a matching file that does not parse is an error naming the
/// file. An empty history is fine (the caller decides whether that's
/// an error).
pub fn load_bench_history(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}", io_error_at(dir, e)))?;
    let mut files: Vec<BenchFile> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}", io_error_at(dir, e)))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pr) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        files.push(BenchFile {
            pr,
            file: name,
            json: read_json(&entry.path())?,
        });
    }
    files.sort_by_key(|f| f.pr);
    Ok(files)
}

/// The baseline's entry for `key`, if it has one.
fn baseline_metric<'a>(key: &str, baseline: Option<&'a Json>) -> Option<&'a Json> {
    match baseline?.get("metrics")? {
        Json::Arr(metrics) => metrics
            .iter()
            .find(|m| matches!(m.get("key"), Some(Json::Str(k)) if k == key)),
        _ => None,
    }
}

/// Every metric `json` contributes to the trail, in report order: each
/// numeric `guardrail.<key>`, then each perfbench end-to-end metric as
/// `<workload>/<metric>` at its change-side median.
fn report_metrics(json: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(Json::Obj(fields)) = json.get("guardrail") {
        out.extend(fields.iter().filter_map(|(key, v)| match v {
            Json::Num(v) => Some((key.clone(), *v)),
            _ => None,
        }));
    }
    if let Some(Json::Obj(workloads)) = json.get("perfbench.end_to_end") {
        for (workload, metrics) in workloads {
            let Json::Obj(metrics) = metrics else {
                continue;
            };
            for (metric, m) in metrics {
                if let Some(median) = m.num("change.median") {
                    out.push((format!("{workload}/{metric}"), median));
                }
            }
        }
    }
    out
}

/// Builds the trend report: metric keys in first-appearance order
/// across the PR-ordered `files`, one [`MetricTrend`] each. `baseline`
/// (the `BENCH_BASELINE.json` document) supplies directions and warn
/// bands when given; without it, directions are inferred from key names
/// and the band floor is 10%.
pub fn bench_history(files: &[BenchFile], baseline: Option<&Json>) -> HistoryReport {
    let prs: Vec<u64> = files.iter().map(|f| f.pr).collect();
    let metrics: Vec<Vec<(String, f64)>> = files.iter().map(|f| report_metrics(&f.json)).collect();
    // Keys in first-appearance order across the history.
    let mut keys: Vec<&str> = Vec::new();
    for (key, _) in metrics.iter().flatten() {
        if !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    let trends = keys
        .into_iter()
        .map(|key| {
            let series: Vec<(u64, Option<f64>)> = prs
                .iter()
                .zip(&metrics)
                .map(|(pr, m)| (*pr, m.iter().find(|(k, _)| k == key).map(|(_, v)| *v)))
                .collect();
            let values: Vec<f64> = series.iter().filter_map(|(_, v)| *v).collect();
            // The band judges the newest point, so it is derived from
            // the points before it.
            let historical = &values[..values.len().saturating_sub(1)];
            let entry = baseline_metric(key, baseline);
            let band_pct = entry
                .and_then(|m| m.num("warn_pct"))
                .unwrap_or(10.0)
                .max(2.0 * cv_percent(historical));
            let higher_is_better = match entry {
                Some(m) => matches!(m.get("direction"), Some(Json::Str(d)) if d == "higher"),
                None => key.contains("speedup"),
            };
            // A metric the newest report lacks is retired: its last
            // change is history, not this PR's doing.
            let current = series.last().is_some_and(|(_, v)| v.is_some());
            let change_pct = match values[..] {
                [.., prev, last] if current => Some(change_percent(prev, last)),
                _ => None,
            };
            let flagged = change_pct.is_some_and(|c| {
                if higher_is_better {
                    c < -band_pct
                } else {
                    c > band_pct
                }
            });
            MetricTrend {
                key: key.to_string(),
                higher_is_better,
                band_pct,
                series,
                change_pct,
                flagged,
            }
        })
        .collect();
    HistoryReport { prs, trends }
}

impl HistoryReport {
    /// The PRs a flagged change happened between: `(from, to)` of the
    /// trend's last two valued points.
    fn endpoints(trend: &MetricTrend) -> Option<(u64, u64)> {
        let valued: Vec<u64> = trend
            .series
            .iter()
            .filter_map(|(pr, v)| v.map(|_| *pr))
            .collect();
        match valued.as_slice() {
            [.., from, to] => Some((*from, *to)),
            _ => None,
        }
    }

    /// Trends whose newest change regressed beyond the noise band.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricTrend> {
        self.trends.iter().filter(|t| t.flagged)
    }

    /// Markdown trend table: one row per metric, one column per PR,
    /// with the latest change, band and verdict.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Bench trajectory (metrics across PRs)\n\n");
        out.push_str("| metric |");
        for pr in &self.prs {
            out.push_str(&format!(" PR{pr} |"));
        }
        out.push_str(" Δ last | band | trend |\n|---|");
        for _ in &self.prs {
            out.push_str("---:|");
        }
        out.push_str("---:|---:|---|\n");
        for t in &self.trends {
            out.push_str(&format!("| `{}` |", t.key));
            for (_, v) in &t.series {
                match v {
                    Some(v) => out.push_str(&format!(" {v:.3} |")),
                    None => out.push_str(" — |"),
                }
            }
            let arrow = match t.change_pct {
                Some(c) => format!("{c:+.1}%"),
                None => "—".to_string(),
            };
            let verdict = if t.flagged {
                "🔺 regressed"
            } else if t.retired() {
                "retired"
            } else if t.change_pct.is_some() {
                "✅ in band"
            } else {
                "—"
            };
            out.push_str(&format!(" {arrow} | ±{:.1}% | {verdict} |\n", t.band_pct));
        }
        let flagged: Vec<&MetricTrend> = self.regressions().collect();
        out.push('\n');
        if flagged.is_empty() {
            out.push_str("No metric regressed beyond its noise band in the latest PR.\n");
        } else {
            for t in flagged {
                let (from, to) = HistoryReport::endpoints(t).unwrap_or((0, 0));
                out.push_str(&format!(
                    "- `{}` moved {:+.1}% between PR{from} and PR{to} \
                     (band ±{:.1}%, {} is better)\n",
                    t.key,
                    t.change_pct.unwrap_or(0.0),
                    t.band_pct,
                    if t.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                ));
            }
        }
        out
    }

    /// JSON rendering; the `regressions` array is what
    /// `perf_guard --trends` and [`crate::guard::trend_flags`] consume.
    pub fn to_json(&self) -> Json {
        let trends = self
            .trends
            .iter()
            .map(|t| {
                Json::obj([
                    ("key", Json::str(t.key.as_str())),
                    (
                        "direction",
                        Json::str(if t.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    ),
                    ("band_pct", Json::Num(t.band_pct)),
                    (
                        "series",
                        Json::Arr(
                            t.series
                                .iter()
                                .map(|(pr, v)| {
                                    Json::obj([
                                        ("pr", Json::Num(*pr as f64)),
                                        ("value", v.map_or(Json::Null, Json::Num)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("change_pct", t.change_pct.map_or(Json::Null, Json::Num)),
                    ("flagged", Json::Bool(t.flagged)),
                ])
            })
            .collect();
        let regressions = self
            .regressions()
            .map(|t| {
                let (from, to) = HistoryReport::endpoints(t).unwrap_or((0, 0));
                Json::obj([
                    ("key", Json::str(t.key.as_str())),
                    ("change_pct", Json::Num(t.change_pct.unwrap_or(0.0))),
                    ("band_pct", Json::Num(t.band_pct)),
                    ("from_pr", Json::Num(from as f64)),
                    ("to_pr", Json::Num(to as f64)),
                ])
            })
            .collect();
        Json::obj([
            (
                "prs",
                Json::Arr(self.prs.iter().map(|pr| Json::Num(*pr as f64)).collect()),
            ),
            ("metrics", Json::Arr(trends)),
            ("regressions", Json::Arr(regressions)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pr: u64, guardrail: &str) -> BenchFile {
        BenchFile {
            pr,
            file: format!("BENCH_PR{pr}.json"),
            json: Json::parse(&format!(r#"{{"pr":{pr},"guardrail":{guardrail}}}"#)).unwrap(),
        }
    }

    #[test]
    fn tracks_keys_across_prs_and_tolerates_gaps() {
        let files = vec![
            file(5, r#"{"a_ns":10.0}"#),
            file(6, r#"{"a_ns":10.5,"b_speedup":2.0}"#),
            file(7, r#"{"a_ns":10.2,"b_speedup":2.1}"#),
        ];
        let report = bench_history(&files, None);
        assert_eq!(report.prs, vec![5, 6, 7]);
        assert_eq!(report.trends.len(), 2);
        let a = &report.trends[0];
        assert_eq!(a.key, "a_ns");
        assert!(!a.higher_is_better);
        assert_eq!(
            a.series,
            vec![(5, Some(10.0)), (6, Some(10.5)), (7, Some(10.2))]
        );
        assert!(!a.flagged, "-2.9% on a lower-is-better metric is fine");
        let b = &report.trends[1];
        assert!(b.higher_is_better, "speedup keys infer higher-is-better");
        assert_eq!(b.series[0], (5, None), "pre-metric PRs render as gaps");
        let md = report.to_markdown();
        assert!(md.contains("| PR5 |"), "{md}");
        assert!(md.contains("No metric regressed"), "{md}");
    }

    #[test]
    fn flags_a_regression_beyond_the_band() {
        let files = vec![
            file(5, r#"{"x_ns":10.0}"#),
            file(6, r#"{"x_ns":10.1}"#),
            file(7, r#"{"x_ns":14.0}"#),
        ];
        let report = bench_history(&files, None);
        let t = &report.trends[0];
        assert!(t.change_pct.unwrap() > 38.0);
        assert!(t.flagged, "+39% on a quiet lower-is-better series");
        let j = report.to_json();
        let Some(Json::Arr(regressions)) = j.get("regressions") else {
            panic!("regressions array missing: {}", j.render_compact());
        };
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].num("from_pr"), Some(6.0));
        assert_eq!(regressions[0].num("to_pr"), Some(7.0));
        let md = report.to_markdown();
        assert!(md.contains("🔺 regressed"), "{md}");
        assert!(md.contains("between PR6 and PR7"), "{md}");
    }

    #[test]
    fn retired_keys_keep_their_column_but_never_flag() {
        // `old_ns` jumped +40% into the second report, then the newest
        // report dropped it: the history keeps the column, the verdict
        // is not a regression, and it does not repeat in every later
        // report.
        let files = vec![
            file(9, r#"{"old_ns":10.0,"kept_ns":5.0}"#),
            file(20, r#"{"old_ns":14.0,"kept_ns":5.1}"#),
            file(21, r#"{"kept_ns":5.0}"#),
        ];
        let report = bench_history(&files, None);
        let old = &report.trends[0];
        assert_eq!(old.key, "old_ns");
        assert_eq!(
            old.series,
            vec![(9, Some(10.0)), (20, Some(14.0)), (21, None)]
        );
        assert!(old.retired());
        assert!(!old.flagged);
        assert_eq!(old.change_pct, None);
        assert!(!report.trends[1].retired());
        assert_eq!(report.regressions().count(), 0);
        let md = report.to_markdown();
        assert!(
            md.contains("| `old_ns` | 10.000 | 14.000 | — | — |"),
            "{md}"
        );
        assert!(md.contains("retired"), "{md}");
        assert!(!md.contains("between PR"), "{md}");
    }

    #[test]
    fn perfbench_medians_join_the_trail() {
        let perfbench = |pr: u64, wall: f64, rss: f64| BenchFile {
            pr,
            file: format!("BENCH_PR{pr}.json"),
            json: Json::parse(&format!(
                r#"{{"guardrail":{{"x_ns":1.0}},"perfbench":{{"end_to_end":{{
                    "paper-grid":{{
                        "norm_wall_s":{{"unit":"s","parent":{{"median":9.0}},
                                        "change":{{"median":{wall},"q1":0.0,"q3":0.0}}}},
                        "peak_rss_mb":{{"unit":"MB","change":{{"median":{rss}}}}}}}}}}}}}"#
            ))
            .unwrap(),
        };
        let report = bench_history(&[perfbench(20, 2.5, 41.0), perfbench(22, 3.5, 41.2)], None);
        let keys: Vec<&str> = report.trends.iter().map(|t| t.key.as_str()).collect();
        assert_eq!(
            keys,
            ["x_ns", "paper-grid/norm_wall_s", "paper-grid/peak_rss_mb"]
        );
        let wall = &report.trends[1];
        assert_eq!(wall.series, vec![(20, Some(2.5)), (22, Some(3.5))]);
        assert!(!wall.higher_is_better, "perfbench metrics: lower is better");
        assert!(wall.flagged, "+40% on the change-side median");
        let rss = &report.trends[2];
        assert!(!rss.flagged, "+0.5% is inside the band");
        let md = report.to_markdown();
        assert!(
            md.contains("`paper-grid/norm_wall_s` moved +40.0% between PR20 and PR22"),
            "{md}"
        );
    }

    #[test]
    fn noisy_series_widen_their_band() {
        // ±20% swings historically: the same +25% jump that would flag
        // a quiet series stays inside the noise band here.
        let files = vec![
            file(1, r#"{"x_ns":10.0}"#),
            file(2, r#"{"x_ns":14.0}"#),
            file(3, r#"{"x_ns":9.0}"#),
            file(4, r#"{"x_ns":13.5}"#),
            file(5, r#"{"x_ns":16.8}"#),
        ];
        let report = bench_history(&files, None);
        let t = &report.trends[0];
        assert!(t.band_pct > 30.0, "band {}", t.band_pct);
        assert!(!t.flagged);
    }

    #[test]
    fn baseline_supplies_direction_and_band_floor() {
        let baseline = Json::parse(
            r#"{"metrics":[{"key":"odd","baseline":2.0,"direction":"higher",
                "warn_pct":25,"fail_pct":50}]}"#,
        )
        .unwrap();
        let files = vec![file(6, r#"{"odd":2.0}"#), file(7, r#"{"odd":1.7}"#)];
        let report = bench_history(&files, Some(&baseline));
        let t = &report.trends[0];
        assert!(t.higher_is_better, "direction comes from the baseline");
        assert!((t.band_pct - 25.0).abs() < 1e-9, "warn band is the floor");
        assert!(!t.flagged, "-15% is inside the 25% band");
    }

    #[test]
    fn ordering_comes_from_filenames() {
        let dir = std::env::temp_dir().join(format!("arvi_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The `pr` field inside lies (PR 6's checked-in report says 5);
        // the filename is the truth.
        std::fs::write(
            dir.join("BENCH_PR10.json"),
            r#"{"pr":9,"guardrail":{"x":1.0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_PR9.json"),
            r#"{"pr":9,"guardrail":{"x":2.0}}"#,
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_BASELINE.json"), r#"{"metrics":[]}"#).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let files = load_bench_history(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files.len(), 2, "only BENCH_PR<N>.json files count");
        assert_eq!(files[0].pr, 9);
        assert_eq!(files[1].pr, 10);
        assert_eq!(files[1].file, "BENCH_PR10.json");
    }

    #[test]
    fn degrades_gracefully_below_two_reports() {
        // Zero reports: empty table skeleton, no trends, no regressions.
        let empty = bench_history(&[], None);
        assert!(empty.prs.is_empty());
        assert!(empty.trends.is_empty());
        assert_eq!(empty.regressions().count(), 0);
        let md = empty.to_markdown();
        assert!(md.contains("## Bench trajectory"), "{md}");
        assert!(md.contains("No metric regressed"), "{md}");
        let j = empty.to_json();
        assert!(matches!(j.get("regressions"), Some(Json::Arr(r)) if r.is_empty()));

        // One report: a column but no deltas, nothing flagged.
        let one = bench_history(&[file(9, r#"{"x_ns":10.0,"y_speedup":4.0}"#)], None);
        assert_eq!(one.prs, vec![9]);
        assert_eq!(one.trends.len(), 2);
        for t in &one.trends {
            assert!(t.change_pct.is_none(), "no delta from a single point");
            assert!(!t.flagged);
        }
        let md = one.to_markdown();
        assert!(md.contains("| PR9 |"), "{md}");
        assert!(md.contains("No metric regressed"), "{md}");
    }

    #[test]
    fn load_error_names_the_path() {
        let dir = std::env::temp_dir().join(format!("arvi_hist_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_PR3.json"), "{not json").unwrap();
        let err = load_bench_history(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("BENCH_PR3.json"), "{err}");
    }
}
