//! Percentiles, `/proc` readings and the `/metrics` text exposition.

/// Nearest-rank percentile of `sorted` (ascending) for `q` in `(0, 1]`: the
/// smallest sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().clamp(1.0, sorted.len() as f64) as usize;
    sorted[rank - 1]
}

/// Percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 0.5)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// User plus system CPU seconds consumed so far by process `pid`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks (USER_HZ, 100 on Linux).
    let fields: Vec<&str> =
        stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("").split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("unreadable /proc/{pid}/stat")),
    }
}

/// One histogram series of a Prometheus text exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Cumulative `(upper bound in µs, count)` pairs, ascending, without `+Inf`.
    pub buckets: Vec<(f64, f64)>,
    pub count: f64,
    pub sum_us: f64,
}

impl Histogram {
    /// Observations between two scrapes of the same series.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let buckets = self
            .buckets
            .iter()
            .map(|&(le, n)| {
                let before = earlier.buckets.iter().find(|b| b.0 == le).map_or(0.0, |b| b.1);
                (le, n - before)
            })
            .collect();
        Histogram {
            buckets,
            count: self.count - earlier.count,
            sum_us: self.sum_us - earlier.sum_us,
        }
    }

    /// Add `other`'s observations (a series with the same bucket bounds).
    pub fn add(&mut self, other: &Histogram) {
        if self.buckets.is_empty() {
            self.buckets = other.buckets.iter().map(|&(le, _)| (le, 0.0)).collect();
        }
        for (le, n) in &mut self.buckets {
            *n += other.buckets.iter().find(|b| b.0 == *le).map_or(0.0, |b| b.1);
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Quantile estimate, interpolating linearly inside the bucket that holds
    /// the rank (the server's own rule, so the two agree).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = (q * self.count).max(1.0);
        let mut lower = (0.0, 0.0);
        for &(le, cumulative) in &self.buckets {
            if cumulative >= rank {
                let in_bucket = cumulative - lower.1;
                let fraction = if in_bucket > 0.0 { (rank - lower.1) / in_bucket } else { 1.0 };
                return lower.0 + fraction * (le - lower.0);
            }
            lower = (le, cumulative);
        }
        lower.0
    }
}

/// Every series of histogram family `family` keyed by the value of `label`.
/// Parses the exposition text itself: it is a wire format, not a library.
pub fn histograms(
    exposition: &str,
    family: &str,
    label: &str,
) -> Result<Vec<(String, Histogram)>, String> {
    let mut out: Vec<(String, Histogram)> = Vec::new();
    for line in exposition.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("bad sample `{line}`"))?;
        let value: f64 = value.parse().map_err(|_| format!("bad value in `{line}`"))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.strip_suffix('}').ok_or("unterminated labels")?),
            None => (series, ""),
        };
        let Some(suffix) = name.strip_prefix(family) else { continue };
        let labels: Vec<(&str, &str)> = labels
            .split(',')
            .filter(|p| !p.is_empty())
            .filter_map(|p| p.split_once('=').map(|(k, v)| (k, v.trim_matches('"'))))
            .collect();
        let Some(key) = labels.iter().find(|(k, _)| *k == label).map(|(_, v)| v.to_string()) else {
            continue;
        };
        let index = match out.iter().position(|(k, _)| *k == key) {
            Some(index) => index,
            None => {
                out.push((key, Histogram::default()));
                out.len() - 1
            }
        };
        let hist = &mut out[index].1;
        match suffix {
            "_bucket" => {
                let le = labels
                    .iter()
                    .find(|(k, _)| *k == "le")
                    .map(|(_, v)| *v)
                    .ok_or("bucket without le")?;
                if le != "+Inf" {
                    let le: f64 = le.parse().map_err(|_| format!("bad le `{le}`"))?;
                    hist.buckets.push((le * 1e6, value));
                }
            }
            "_sum" => hist.sum_us = value * 1e6,
            "_count" => hist.count = value,
            _ => {}
        }
    }
    for (_, hist) in &mut out {
        hist.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.991), 100.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.001), 1.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&[4.0], 0.5), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    const EXPOSITION: &str = "\
# TYPE rvsim_request_phase_seconds histogram
rvsim_request_phase_seconds_bucket{phase=\"handler\",le=\"0.000001\"} 0
rvsim_request_phase_seconds_bucket{phase=\"handler\",le=\"0.000002\"} 4
rvsim_request_phase_seconds_bucket{phase=\"handler\",le=\"0.000004\"} 8
rvsim_request_phase_seconds_bucket{phase=\"handler\",le=\"+Inf\"} 8
rvsim_request_phase_seconds_sum{phase=\"handler\"} 0.000020
rvsim_request_phase_seconds_count{phase=\"handler\"} 8
rvsim_uptime_seconds 3
";

    #[test]
    fn exposition_histograms_parse_and_subtract() {
        let parsed = histograms(EXPOSITION, "rvsim_request_phase_seconds", "phase").unwrap();
        assert_eq!(parsed.len(), 1);
        let (phase, hist) = &parsed[0];
        assert_eq!(phase, "handler");
        assert_eq!(hist.count, 8.0);
        assert!((hist.sum_us - 20.0).abs() < 1e-9);
        assert_eq!(hist.quantile_us(0.5), 2.0);
        assert_eq!(hist.quantile_us(1.0), 4.0);
        let none = hist.since(hist);
        assert_eq!((none.count, none.quantile_us(0.5)), (0.0, 0.0));
        let mut twice = Histogram::default();
        twice.add(hist);
        twice.add(hist);
        assert_eq!((twice.count, twice.quantile_us(0.5)), (16.0, 2.0));
        assert_eq!(twice.since(hist), *hist);
        assert!(histograms("x_bucket{le=\"1\"} oops", "x", "le").is_err());
    }
}
