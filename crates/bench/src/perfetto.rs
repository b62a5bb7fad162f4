//! Chrome-trace-event exporter for the flight recorder.
//!
//! Renders a [`FlightRecorder`] (plus the optional counter
//! [`SampleSeries`]) as a Chrome/Perfetto trace-event JSON document —
//! drop the file on <https://ui.perfetto.dev> to browse a serving run.
//!
//! Track layout:
//!
//! * **pid 0 `machine`** — one thread per DCE shard (`dce-shard{n}`)
//!   carrying one complete (`X`, start + duration) slice per engine
//!   occupancy, from device-start to retire/suspend (labelled with the
//!   owning tenant and job, joined through the dispatch-pick event of
//!   the same `(shard, seq)`), with doorbell and interrupt instants on
//!   the same track, and the time-series counters as `C` events.
//! * **pid 1+t, one process per tenant** — async (`b`/`e`) job slices
//!   keyed by job id from arrival to completion, with nested
//!   `suspended` slices between each recall and its resume.
//!
//! Slice endpoints are paired *before* emission (device occupancies by
//! `(shard, seq)`, suspensions by recall order per job), so
//! zero-duration occupancies — a chunk installed and kicked in the
//! same engine cycle — stay well-formed. Everything is emitted in a
//! deterministic order (stable sort by timestamp, closes before opens
//! at equal timestamps), so two runs of the same seeded scenario
//! export byte-identical files.

use crate::json::Json;
use pim_runtime::{
    Attribution, FlightRecorder, JobWaterfall, SampleSeries, SloTracker, SpanEvent, SpanKind,
    Stage, NO_SEQ, NO_TENANT,
};
use std::collections::{BTreeMap, VecDeque};

/// Shard thread id on the machine process (tid 0 is reserved for the
/// process-scoped counter track).
fn shard_tid(shard: u32) -> u64 {
    1 + u64::from(shard)
}

/// One pending trace event with its sort key. `rank` orders events at
/// equal timestamps: async closes drain before opens so back-to-back
/// suspensions of one job never overlap — except a zero-duration
/// pair's close, which must trail its own open.
struct Pending {
    ts_us: f64,
    rank: u8,
    body: Json,
}

const RANK_CLOSE_ASYNC: u8 = 0;
const RANK_INSTANT: u8 = 1;
const RANK_COUNTER: u8 = 2;
const RANK_OPEN: u8 = 3;
const RANK_ZERO_CLOSE: u8 = 4;

fn event(
    name: &str,
    cat: &str,
    ph: &str,
    t_ns: f64,
    pid: u64,
    tid: u64,
    extra: &[(&str, Json)],
) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("cat".to_string(), Json::Str(cat.to_string())),
        ("ph".to_string(), Json::Str(ph.to_string())),
        ("ts".to_string(), Json::num(t_ns / 1e3)),
        ("pid".to_string(), Json::int(pid)),
        ("tid".to_string(), Json::int(tid)),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(fields)
}

fn args(pairs: &[(&str, Json)]) -> (&'static str, Json) {
    (
        "args",
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        ),
    )
}

/// Label for a device-side slice: the owning tenant and job when the
/// dispatch-pick join is available, the bare ring sequence otherwise
/// (e.g. when the pick was evicted from a saturated recorder).
fn device_label(
    ev: &SpanEvent,
    owners: &BTreeMap<(u32, u64), (u32, u64)>,
    tenants: &[&str],
) -> String {
    match owners.get(&(ev.shard, ev.seq)) {
        Some(&(tenant, job)) => {
            let name = tenants.get(tenant as usize).copied().unwrap_or("tenant?");
            format!("{name} job {job}")
        }
        None => format!("seq {}", ev.seq),
    }
}

/// Render the recorder (and optional sampler series) as a Chrome
/// trace-event document. `tenants` are the process names in tenant
/// order; `shards` fixes how many engine threads the machine process
/// advertises (so empty tracks still appear, keeping layout stable
/// across seeds). The analysis layers overlay on request:
///
/// * when `attribution` is given, every completed job's async slice
///   opens with its stage waterfall (per-[`Stage`] nanoseconds, chunk
///   and preemption counts) as slice `args`, so hovering a job in the
///   Perfetto UI shows where its latency went;
/// * when `slo` is given, the machine process grows an `slo` thread
///   (tid `1 + shards`) carrying one instant per edge-triggered breach
///   (named `{class} {kind}`, burn rates in `args`), and the tracker's
///   sampled burn-rate/goodput series joins the counter tracks.
pub fn chrome_trace(
    rec: &FlightRecorder,
    tenants: &[&str],
    shards: usize,
    series: Option<&SampleSeries>,
    attribution: Option<&Attribution>,
    slo: Option<&SloTracker>,
) -> Json {
    // Stage waterfalls keyed like the async job slices they decorate.
    let waterfalls: BTreeMap<(u32, u64), &JobWaterfall> = attribution
        .map(|a| {
            a.jobs
                .iter()
                .filter(|w| w.complete)
                .map(|w| ((w.tenant, w.job), w))
                .collect()
        })
        .unwrap_or_default();
    let mut events: Vec<Json> = Vec::new();

    // Metadata first: process and thread names, in a fixed order.
    events.push(event(
        "process_name",
        "__metadata",
        "M",
        0.0,
        0,
        0,
        &[args(&[("name", Json::str("machine"))])],
    ));
    for s in 0..shards {
        events.push(event(
            "thread_name",
            "__metadata",
            "M",
            0.0,
            0,
            shard_tid(s as u32),
            &[args(&[("name", Json::Str(format!("dce-shard{s}")))])],
        ));
    }
    if slo.is_some() {
        events.push(event(
            "thread_name",
            "__metadata",
            "M",
            0.0,
            0,
            shard_tid(shards as u32),
            &[args(&[("name", Json::str("slo"))])],
        ));
    }
    for (t, name) in tenants.iter().enumerate() {
        events.push(event(
            "process_name",
            "__metadata",
            "M",
            0.0,
            1 + t as u64,
            0,
            &[args(&[("name", Json::Str((*name).to_string()))])],
        ));
    }

    // Join device-side events (which carry only `(shard, seq)`) to
    // their owners through the dispatch-pick of the same key.
    let mut owners: BTreeMap<(u32, u64), (u32, u64)> = BTreeMap::new();
    for ev in rec.iter() {
        if ev.kind == SpanKind::DispatchPick && ev.seq != NO_SEQ {
            owners.insert((ev.shard, ev.seq), (ev.tenant, ev.job));
        }
    }

    let mut pending: Vec<Pending> = Vec::new();
    let mut push = |t_ns: f64, rank: u8, body: Json| {
        pending.push(Pending {
            ts_us: t_ns / 1e3,
            rank,
            body,
        });
    };

    // Pair slice endpoints before emission. Device occupancies are
    // keyed by `(shard, seq)` (unique per install); suspensions pair
    // the k-th recall of a job with its k-th resume (the recall is
    // always recorded first — the remainder can only be re-staged
    // after the host claims it); job slices pair arrival with
    // completion. Endpoints whose partner is missing (recorder
    // eviction, or a run cut off mid-flight) degrade to instants.
    let mut device_start: BTreeMap<(u32, u64), (f64, u64)> = BTreeMap::new();
    let mut recalls: BTreeMap<(u32, u64), VecDeque<(f64, u64)>> = BTreeMap::new();
    let mut arrivals: BTreeMap<(u32, u64), (f64, u64)> = BTreeMap::new();

    for ev in rec.iter() {
        let t = ev.t_ns;
        match ev.kind {
            SpanKind::Arrival => {
                arrivals.insert((ev.tenant, ev.job), (t, ev.bytes));
            }
            SpanKind::Complete => {
                let Some((start, bytes)) = arrivals.remove(&(ev.tenant, ev.job)) else {
                    continue; // arrival evicted from a saturated ring
                };
                let rank_e = if t <= start {
                    RANK_ZERO_CLOSE
                } else {
                    RANK_CLOSE_ASYNC
                };
                let mut arg_pairs = vec![("bytes", Json::int(bytes))];
                if let Some(w) = waterfalls.get(&(ev.tenant, ev.job)) {
                    for stage in Stage::ALL {
                        arg_pairs.push((stage.name(), Json::num(w.stages[stage as usize])));
                    }
                    arg_pairs.push(("chunks", Json::int(u64::from(w.chunks))));
                    arg_pairs.push(("preemptions", Json::int(u64::from(w.preemptions))));
                }
                push(
                    start,
                    RANK_OPEN,
                    event(
                        &format!("job {}", ev.job),
                        "job",
                        "b",
                        start,
                        1 + u64::from(ev.tenant),
                        1,
                        &[("id", Json::int(ev.job)), args(&arg_pairs)],
                    ),
                );
                push(
                    t,
                    rank_e,
                    event(
                        &format!("job {}", ev.job),
                        "job",
                        "e",
                        t,
                        1 + u64::from(ev.tenant),
                        1,
                        &[("id", Json::int(ev.job))],
                    ),
                );
            }
            SpanKind::Recall => {
                recalls
                    .entry((ev.tenant, ev.job))
                    .or_default()
                    .push_back((t, ev.bytes));
            }
            SpanKind::Resume => {
                let Some((start, bytes)) = recalls
                    .get_mut(&(ev.tenant, ev.job))
                    .and_then(VecDeque::pop_front)
                else {
                    continue;
                };
                // A remainder re-dispatched at the very poll edge that
                // recalled it is a zero-width suspension: its close
                // must trail its own open, not sort before it.
                let rank_e = if t <= start {
                    RANK_ZERO_CLOSE
                } else {
                    RANK_CLOSE_ASYNC
                };
                push(
                    start,
                    RANK_OPEN,
                    event(
                        "suspended",
                        "job",
                        "b",
                        start,
                        1 + u64::from(ev.tenant),
                        1,
                        &[
                            ("id", Json::int(ev.job)),
                            args(&[("remaining_bytes", Json::int(bytes))]),
                        ],
                    ),
                );
                push(
                    t,
                    rank_e,
                    event(
                        "suspended",
                        "job",
                        "e",
                        t,
                        1 + u64::from(ev.tenant),
                        1,
                        &[("id", Json::int(ev.job))],
                    ),
                );
            }
            SpanKind::DeviceStart => {
                device_start.insert((ev.shard, ev.seq), (t, ev.bytes));
            }
            SpanKind::Retire | SpanKind::Suspend => {
                let Some((start, bytes)) = device_start.remove(&(ev.shard, ev.seq)) else {
                    push(
                        t,
                        RANK_INSTANT,
                        event(
                            ev.kind.name(),
                            "dce",
                            "i",
                            t,
                            0,
                            shard_tid(ev.shard),
                            &[("s", Json::str("t"))],
                        ),
                    );
                    continue;
                };
                // One complete slice per engine occupancy: immune to
                // open/close ordering even when the occupancy is
                // zero-duration (installed and kicked the same cycle).
                push(
                    start,
                    RANK_OPEN,
                    event(
                        &device_label(ev, &owners, tenants),
                        "dce",
                        "X",
                        start,
                        0,
                        shard_tid(ev.shard),
                        &[
                            ("dur", Json::num((t - start).max(0.0) / 1e3)),
                            args(&[
                                ("seq", Json::int(ev.seq)),
                                ("outcome", Json::str(ev.kind.name())),
                                ("installed_bytes", Json::int(bytes)),
                                ("moved_bytes", Json::int(ev.bytes)),
                            ]),
                        ],
                    ),
                );
            }
            SpanKind::Doorbell | SpanKind::Interrupt => {
                push(
                    t,
                    RANK_INSTANT,
                    event(
                        ev.kind.name(),
                        "host",
                        "i",
                        t,
                        0,
                        shard_tid(ev.shard),
                        &[("s", Json::str("t"))],
                    ),
                );
            }
            SpanKind::Enqueue | SpanKind::DispatchPick | SpanKind::SuspendRequest => {
                // Lifecycle instants on the owning tenant's track; the
                // suspend request may predate any tenant attribution
                // (it targets a shard), so fall back to the machine.
                let (pid, tid) = if ev.tenant == NO_TENANT {
                    (0, shard_tid(ev.shard))
                } else {
                    (1 + u64::from(ev.tenant), 1)
                };
                push(
                    t,
                    RANK_INSTANT,
                    event(
                        ev.kind.name(),
                        "lifecycle",
                        "i",
                        t,
                        pid,
                        tid,
                        &[("s", Json::str("t"))],
                    ),
                );
            }
        }
    }

    // Unpartnered opens (run cut off mid-flight) degrade to instants,
    // re-walked in recorder order so emission stays deterministic.
    for ev in rec.iter() {
        let (present, name, pid, tid) = match ev.kind {
            SpanKind::DeviceStart => (
                device_start.contains_key(&(ev.shard, ev.seq)),
                "device-start (unclosed)",
                0,
                shard_tid(ev.shard),
            ),
            SpanKind::Arrival => (
                arrivals.contains_key(&(ev.tenant, ev.job)),
                "arrival (incomplete)",
                1 + u64::from(ev.tenant),
                1,
            ),
            _ => continue,
        };
        if present {
            push(
                ev.t_ns,
                RANK_INSTANT,
                event(
                    name,
                    "truncated",
                    "i",
                    ev.t_ns,
                    pid,
                    tid,
                    &[("s", Json::str("t"))],
                ),
            );
        }
    }
    // Unresumed recalls likewise.
    let mut leftover_recalls = recalls;
    for ev in rec.iter() {
        if ev.kind != SpanKind::Recall {
            continue;
        }
        // Each event consumes one leftover entry front-to-back only if
        // this recall is among the unpaired tail for its job.
        if let Some(q) = leftover_recalls.get_mut(&(ev.tenant, ev.job)) {
            if q.front().is_some_and(|&(t, _)| t == ev.t_ns) {
                q.pop_front();
                push(
                    ev.t_ns,
                    RANK_INSTANT,
                    event(
                        "suspended (unresumed)",
                        "truncated",
                        "i",
                        ev.t_ns,
                        1 + u64::from(ev.tenant),
                        1,
                        &[("s", Json::str("t"))],
                    ),
                );
            }
        }
    }

    // Counter tracks from the sampler, on the machine process.
    if let Some(series) = series {
        for (t_ns, row) in series.iter() {
            for (col, &v) in series.columns().iter().zip(row.iter()) {
                push(
                    t_ns,
                    RANK_COUNTER,
                    event(
                        col,
                        "counter",
                        "C",
                        t_ns,
                        0,
                        0,
                        &[args(&[("value", Json::num(v))])],
                    ),
                );
            }
        }
    }

    // SLO burn-rate counters and edge-triggered breach instants.
    if let Some(slo) = slo {
        for (t_ns, row) in slo.series().iter() {
            for (col, &v) in slo.series().columns().iter().zip(row.iter()) {
                push(
                    t_ns,
                    RANK_COUNTER,
                    event(
                        &format!("slo.{col}"),
                        "counter",
                        "C",
                        t_ns,
                        0,
                        0,
                        &[args(&[("value", Json::num(v))])],
                    ),
                );
            }
        }
        for b in slo.breaches() {
            let class = &slo.configs()[b.class].class;
            push(
                b.t_ns,
                RANK_INSTANT,
                event(
                    &format!("{class} {}", b.kind.name()),
                    "slo",
                    "i",
                    b.t_ns,
                    0,
                    shard_tid(shards as u32),
                    &[
                        ("s", Json::str("t")),
                        args(&[
                            ("fast_burn", Json::num(b.fast_burn)),
                            ("slow_burn", Json::num(b.slow_burn)),
                        ]),
                    ],
                ),
            );
        }
    }

    pending.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .expect("finite timestamps")
            .then(a.rank.cmp(&b.rank))
    });
    events.extend(pending.into_iter().map(|p| p.body));

    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// What [`validate_chrome_trace`] measured while walking the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total trace events (including metadata).
    pub events: usize,
    /// Completed device slices (`X` events, plus `E` closes for
    /// traces using explicit begin/end pairs).
    pub device_slices: usize,
    /// Completed async job/suspension slices (`e` closes).
    pub async_slices: usize,
    /// Counter samples (`C` events).
    pub counter_samples: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Check a trace document is structurally valid Chrome-trace JSON:
/// a `traceEvents` array whose entries carry the required fields,
/// with per-track timestamps monotonically non-decreasing, `B`/`E`
/// balanced on every synchronous track, and `b`/`e` balanced per
/// `(pid, id, name)` async key.
///
/// # Errors
///
/// A description of the first malformed event.
pub fn validate_chrome_trace(trace: &Json) -> Result<TraceSummary, String> {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut sync_depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut async_depth: BTreeMap<(u64, u64, String), i64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} < {prev} on track pid={pid} tid={tid}"
                ));
            }
        }
        last_ts.insert(track, ts);
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: bad dur {dur}"));
                }
                summary.device_slices += 1;
            }
            "B" => *sync_depth.entry(track).or_insert(0) += 1,
            "E" => {
                let d = sync_depth.entry(track).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("event {i}: E without B on pid={pid} tid={tid}"));
                }
                summary.device_slices += 1;
            }
            "b" | "e" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: async event missing id"))?
                    as u64;
                let name = ev.get("name").and_then(Json::as_str).expect("checked");
                let key = (pid, id, name.to_string());
                let d = async_depth.entry(key).or_insert(0);
                if ph == "b" {
                    *d += 1;
                } else {
                    *d -= 1;
                    if *d < 0 {
                        return Err(format!("event {i}: e without b (pid={pid} id={id})"));
                    }
                    summary.async_slices += 1;
                }
            }
            "C" => summary.counter_samples += 1,
            "i" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    if let Some((track, d)) = sync_depth.iter().find(|(_, &d)| d != 0) {
        return Err(format!(
            "unbalanced B/E (depth {d}) on pid={} tid={}",
            track.0, track.1
        ));
    }
    if let Some((key, d)) = async_depth.iter().find(|(_, &d)| d != 0) {
        return Err(format!(
            "unbalanced b/e (depth {d}) for pid={} id={} name={}",
            key.0, key.1, key.2
        ));
    }
    summary.tracks = last_ts.len();
    Ok(summary)
}

/// Render a [`pim_runtime::TelemetrySnapshot`] as a JSON object:
/// `{"t_ns": ..., "counters": {name: value, ...}}` in registration
/// order.
pub fn snapshot_json(snap: &pim_runtime::TelemetrySnapshot) -> Json {
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(k, v)| (k.to_string(), Json::num(v)))
            .collect(),
    );
    Json::obj([("t_ns", Json::num(snap.t_ns)), ("counters", counters)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_runtime::TelemetryConfig;

    fn recorder_with(events: &[SpanEvent]) -> FlightRecorder {
        let mut rec = FlightRecorder::new(TelemetryConfig::on());
        for &e in events {
            rec.record(e);
        }
        rec
    }

    #[test]
    fn exports_joined_tracks_that_validate() {
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::Enqueue, 0.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::DispatchPick, 10.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Doorbell, 12.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 15.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Retire, 90.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Interrupt, 95.0).shard(0),
            SpanEvent::new(SpanKind::Complete, 99.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
        ]);
        let trace = chrome_trace(&rec, &["alpha"], 1, None, None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.device_slices, 1);
        assert_eq!(summary.async_slices, 1);
        // The device slice was joined to its owner through the pick.
        let rendered = trace.render();
        assert!(rendered.contains("alpha job 1"), "join failed:\n{rendered}");
        // Round-trips through the parser unchanged.
        let reparsed = crate::json::parse(&rendered).expect("parses");
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn suspension_renders_as_nested_async_slice() {
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(1)
                .job(7)
                .bytes(8192),
            SpanEvent::new(SpanKind::DispatchPick, 5.0)
                .tenant(1)
                .shard(0)
                .job(7)
                .seq(3)
                .bytes(8192),
            SpanEvent::new(SpanKind::DeviceStart, 6.0)
                .shard(0)
                .seq(3)
                .bytes(8192),
            SpanEvent::new(SpanKind::Suspend, 20.0)
                .shard(0)
                .seq(3)
                .bytes(4096),
            SpanEvent::new(SpanKind::Recall, 25.0)
                .tenant(1)
                .shard(0)
                .job(7)
                .bytes(4096),
            SpanEvent::new(SpanKind::DispatchPick, 40.0)
                .tenant(1)
                .shard(0)
                .job(7)
                .seq(4)
                .bytes(4096),
            SpanEvent::new(SpanKind::Resume, 40.0)
                .tenant(1)
                .shard(0)
                .job(7)
                .seq(4),
            SpanEvent::new(SpanKind::DeviceStart, 41.0)
                .shard(0)
                .seq(4)
                .bytes(4096),
            SpanEvent::new(SpanKind::Retire, 60.0)
                .shard(0)
                .seq(4)
                .bytes(4096),
            SpanEvent::new(SpanKind::Complete, 65.0)
                .tenant(1)
                .job(7)
                .bytes(8192),
        ]);
        let trace = chrome_trace(&rec, &["alpha", "beta"], 1, None, None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.device_slices, 2, "two engine occupancies");
        assert_eq!(summary.async_slices, 2, "job slice + suspended slice");
    }

    #[test]
    fn counters_export_and_count() {
        let mut series = SampleSeries::new(&["backlog", "gbps"], 10.0);
        series.record(0.0, &[2.0, 1.5]);
        series.record(10.0, &[1.0, 3.0]);
        let rec = recorder_with(&[]);
        let trace = chrome_trace(&rec, &[], 2, Some(&series), None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.counter_samples, 4);
    }

    #[test]
    fn equal_timestamp_occupancies_stay_well_formed() {
        // Back-to-back descriptors: seq 0 retires at the same instant
        // seq 1 starts — and seq 1 is kicked in its install cycle, a
        // zero-duration occupancy (observed under PriorityKick when a
        // pending request hits the freshly installed descriptor).
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::DeviceStart, 0.0).shard(0).seq(0),
            SpanEvent::new(SpanKind::DeviceStart, 50.0).shard(0).seq(1),
            SpanEvent::new(SpanKind::Retire, 50.0).shard(0).seq(0),
            SpanEvent::new(SpanKind::Suspend, 50.0)
                .shard(0)
                .seq(1)
                .bytes(0),
        ]);
        let trace = chrome_trace(&rec, &[], 1, None, None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.device_slices, 2);
    }

    #[test]
    fn zero_width_suspension_closes_after_its_open() {
        // A remainder recalled and re-dispatched at the same poll edge:
        // the nested `suspended` slice has zero width and its `e` must
        // trail its own `b` in emission order.
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(0)
                .job(3)
                .bytes(8192),
            SpanEvent::new(SpanKind::Recall, 30.0)
                .tenant(0)
                .shard(0)
                .job(3)
                .bytes(4096),
            SpanEvent::new(SpanKind::Resume, 30.0)
                .tenant(0)
                .shard(0)
                .job(3)
                .seq(9),
            SpanEvent::new(SpanKind::Complete, 90.0)
                .tenant(0)
                .job(3)
                .bytes(8192),
        ]);
        let trace = chrome_trace(&rec, &["alpha"], 1, None, None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.async_slices, 2);
    }

    #[test]
    fn truncated_endpoints_degrade_to_instants() {
        // A run cut off mid-flight: an installed-but-unclosed chunk, an
        // arrived-but-incomplete job, an unresumed recall. None may
        // break validation.
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::DeviceStart, 10.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Recall, 20.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .bytes(2048),
        ]);
        let trace = chrome_trace(&rec, &["alpha"], 1, None, None, None);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.device_slices, 0);
        assert_eq!(summary.async_slices, 0);
        let rendered = trace.render();
        for needle in [
            "device-start (unclosed)",
            "arrival (incomplete)",
            "suspended (unresumed)",
        ] {
            assert!(rendered.contains(needle), "missing `{needle}`");
        }
    }

    #[test]
    fn full_trace_carries_waterfall_args_and_slo_tracks() {
        use pim_runtime::{Attribution, SloConfig, SloTracker};
        let rec = recorder_with(&[
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::Enqueue, 0.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::DispatchPick, 10.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Doorbell, 12.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 15.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Retire, 90.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Interrupt, 95.0).shard(0),
            SpanEvent::new(SpanKind::Complete, 99.0)
                .tenant(0)
                .job(1)
                .bytes(4096),
        ]);
        let attribution = Attribution::from_recorder(&rec);
        // 5% error budget: an all-bad window burns at 20×, past the
        // default 10× threshold in both windows.
        let mut slo = SloTracker::new(
            vec![SloConfig::latency("alpha", 50.0, 0.95).with_windows(100.0, 100.0)],
            50.0,
        );
        slo.observe(0, 99.0, 99.0, 4096); // 99 ns > 50 ns objective: bad
        slo.sample(100.0);
        for i in 0..20 {
            slo.observe(0, 151.0 + i as f64, 99.0, 1);
        }
        slo.sample(200.0);
        assert!(!slo.breaches().is_empty(), "test setup must breach");

        let trace = chrome_trace(&rec, &["alpha"], 1, None, Some(&attribution), Some(&slo));
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert!(summary.counter_samples >= 6, "{}", summary.counter_samples);
        let rendered = trace.render();
        // Waterfall args on the job slice.
        for needle in ["queue-wait", "device-service", "coalescing", "chunks"] {
            assert!(rendered.contains(needle), "missing `{needle}`");
        }
        // The SLO thread, its counters, and the breach instant.
        for needle in ["\"slo\"", "slo.alpha.burn_fast", "alpha latency-burn"] {
            assert!(rendered.contains(needle), "missing `{needle}`");
        }
        // Without the layers the export carries none of them.
        let plain = chrome_trace(&rec, &["alpha"], 1, None, None, None);
        assert!(!plain.render().contains("queue-wait"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace(&Json::obj([("x", Json::Null)])).is_err());
        let bad = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("x")),
                ("ph", Json::str("E")),
                ("ts", Json::num(1.0)),
                ("pid", Json::int(0u64)),
                ("tid", Json::int(1u64)),
            ])]),
        )]);
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("E without B"), "{err}");
    }
}
