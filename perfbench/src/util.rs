//! Small shared pieces: the seeded generator, summary statistics, metric
//! counters parsed from the Prometheus text format, trace spans, `/proc`
//! readers, and the selection of the periods the host left alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// splitmix64: every input the benchmark generates derives from `--seed`
/// through this generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of `values` (`q` in (0, 1]); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted (the base is reported
/// beside every ratio, so a 0 base is visible).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every series of one registry snapshot, keyed by its Prometheus series
/// name with labels, e.g. `cce_serve_request_ns_sum{endpoint="explain"}`.
/// The daemons expose this text on `/metrics`; in process it comes from
/// `cce_obs::registry()`, so both sides parse the same way.
#[derive(Default, Clone)]
pub struct Counts(BTreeMap<String, f64>);

impl Counts {
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Self(map)
    }

    pub fn in_process() -> Self {
        Self::parse(&cce_obs::registry().snapshot().to_prometheus_string())
    }

    /// Sum over the series named `name` whose labels include every
    /// `key="value"` pair of `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (n, l) = series.split_once('{').unwrap_or((series.as_str(), ""));
                n == name
                    && labels
                        .iter()
                        .all(|(k, v)| l.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|(_, v)| v)
            .fold(0.0, |a, b| a + b)
    }

    /// `self - earlier`, series by series.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = self.0.clone();
        for (k, v) in out.iter_mut() {
            *v -= earlier.0.get(k).copied().unwrap_or(0.0);
        }
        Counts(out)
    }
}

/// One traced interval around a call the benchmark makes into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one request (or one pass).
    pub request: u64,
}

/// An in-memory span log, written out once the run ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Mean duration in µs of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        mean(&d)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// `VmHWM` of `pid` in MiB (0 when the process is gone).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(state, ppid)` of `pid`, or `None` when it no longer exists.
fn stat_of(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces or parentheses; fields resume
    // after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    Some((state, ppid))
}

/// Live processes whose parent is `pid` (the shard workers of a daemon).
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| matches!(stat_of(p), Some((s, pp)) if pp == pid && s != 'Z'))
        .collect()
}

/// True while `pid` exists and has not exited (a zombie has exited).
pub fn alive(pid: u32) -> bool {
    matches!(stat_of(pid), Some((s, _)) if s != 'Z' && s != 'X')
}

/// A reading of the VM's CPU-time counters in `/proc/stat`: the ticks the
/// hypervisor ran other tenants while this machine's CPUs wanted to run
/// (`steal`), and all ticks. Both read 0 where the file is missing.
#[derive(Clone, Copy)]
pub struct Tick {
    pub at: Instant,
    steal: u64,
    total: u64,
}

impl Tick {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Self {
            at: Instant::now(),
            steal: cpu.get(7).copied().unwrap_or(0),
            total: cpu.iter().sum(),
        }
    }

    /// The share of the CPU time from `self` to `later` that was stolen.
    pub fn steal_share(&self, later: &Tick) -> f64 {
        ratio(
            later.steal.saturating_sub(self.steal) as f64,
            later.total.saturating_sub(self.total) as f64,
        )
    }
}

/// How often a window reads the counters.
pub const TICK_EVERY: Duration = Duration::from_millis(100);
/// The periods a window's metrics are taken over.
pub const SLICE: Duration = Duration::from_secs(1);
/// A period is quiet when at most this share of its CPU time was stolen.
const QUIET_STEAL: f64 = 0.01;

/// Reads the counters every `TICK_EVERY` until `deadline`.
pub fn ticks_until(deadline: Instant) -> Vec<Tick> {
    let mut ticks = vec![Tick::now()];
    while Instant::now() < deadline {
        std::thread::sleep(TICK_EVERY.min(deadline.saturating_duration_since(Instant::now())));
        ticks.push(Tick::now());
    }
    ticks
}

/// The quiet items of `(steal share, item)` pairs, in their order; when
/// fewer than a quarter are quiet, the least-stolen quarter instead.
pub fn quiet<T>(mut periods: Vec<(f64, T)>) -> Vec<T> {
    let n_quiet = periods.iter().filter(|(s, _)| *s <= QUIET_STEAL).count();
    let keep = n_quiet.max(periods.len().div_ceil(4));
    // A stable sort keeps equally stolen periods in time order.
    periods.sort_by(|a, b| a.0.total_cmp(&b.0));
    periods.truncate(keep);
    periods.into_iter().map(|(_, item)| item).collect()
}

/// Cuts `ticks` into consecutive slices of at least `SLICE` (a shorter
/// tail is dropped) and returns the quiet ones as `[start, end)`.
pub fn quiet_slices(ticks: &[Tick]) -> Vec<(Instant, Instant)> {
    let mut slices = Vec::new();
    let mut from = 0;
    for i in 1..ticks.len() {
        if ticks[i].at - ticks[from].at >= SLICE {
            let share = ticks[from].steal_share(&ticks[i]);
            slices.push((share, (ticks[from].at, ticks[i].at)));
            from = i;
        }
    }
    quiet(slices)
}

/// Whether `t` falls in one of `slices`.
pub fn within(slices: &[(Instant, Instant)], t: Instant) -> bool {
    slices.iter().any(|(a, b)| *a <= t && t < *b)
}
