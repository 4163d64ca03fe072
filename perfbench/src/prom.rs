//! Reading the server's public `/metrics?format=prometheus` scrape: plain
//! samples by series, histograms rebuilt from their cumulative buckets, and
//! the difference of two scrapes, so a phase reports only its own requests.

use std::collections::HashMap;

/// A cumulative histogram: `(le, count ≤ le)` ascending, plus sum and count.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl Hist {
    /// Cumulative count at `le` (the largest bucket bound not above it).
    fn cumulative_at(&self, le: f64) -> f64 {
        self.buckets
            .iter()
            .take_while(|(bound, _)| *bound <= le)
            .last()
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// What was recorded after `earlier` was scraped.
    pub fn minus(&self, earlier: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c - earlier.cumulative_at(le)))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// Nearest-rank percentile, reported as the upper bound of the bucket
    /// holding it (the server's histograms are within 6.25 % of the exact
    /// value). `0` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = (q * self.count).ceil().max(1.0);
        self.buckets
            .iter()
            .find(|(le, c)| *c >= rank && le.is_finite())
            .or_else(|| self.buckets.iter().rev().find(|(le, _)| le.is_finite()))
            .map(|(le, _)| *le)
            .unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

/// One parsed exposition.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: HashMap<String, f64>,
    hists: HashMap<String, Hist>,
}

fn split_series(series: &str) -> (&str, &str) {
    match series.split_once('{') {
        Some((name, rest)) => (name, rest.trim_end_matches('}')),
        None => (series, ""),
    }
}

fn key(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = split_series(series);
            if let Some(base) = name.strip_suffix("_bucket") {
                let Some((rest, le)) = labels.rsplit_once("le=\"") else {
                    continue;
                };
                let le = le.trim_end_matches('"');
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                let hist = scrape
                    .hists
                    .entry(key(base, rest.trim_end_matches(',')))
                    .or_default();
                hist.buckets.push((le, value));
            } else if let Some(base) = name.strip_suffix("_sum") {
                scrape.hists.entry(key(base, labels)).or_default().sum = value;
            } else if let Some(base) = name.strip_suffix("_count") {
                scrape.hists.entry(key(base, labels)).or_default().count = value;
            } else {
                scrape.samples.insert(key(name, labels), value);
            }
        }
        for hist in scrape.hists.values_mut() {
            hist.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        scrape
    }

    /// A plain sample (`0` when absent).
    pub fn value(&self, series: &str) -> f64 {
        self.samples.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of every sample of a metric family, across label sets.
    pub fn family_total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| split_series(series).0 == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// How much a counter grew since `earlier`.
    pub fn delta(&self, earlier: &Scrape, series: &str) -> f64 {
        self.value(series) - earlier.value(series)
    }

    pub fn family_delta(&self, earlier: &Scrape, name: &str) -> f64 {
        self.family_total(name) - earlier.family_total(name)
    }

    /// A histogram's growth since `earlier` (empty when absent).
    pub fn hist_delta(&self, earlier: &Scrape, series: &str) -> Hist {
        let empty = Hist::default();
        let now = self.hists.get(series).unwrap_or(&empty);
        now.minus(earlier.hists.get(series).unwrap_or(&empty))
    }

    /// Every histogram series of a family, as `(series, delta)`.
    pub fn family_hist_deltas(&self, earlier: &Scrape, name: &str) -> Vec<(String, Hist)> {
        let mut series: Vec<&String> = self
            .hists
            .keys()
            .filter(|k| split_series(k).0 == name)
            .collect();
        series.sort();
        series
            .into_iter()
            .map(|s| (s.clone(), self.hist_delta(earlier, s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str =
        "# TYPE holistix_poll_wakeups_total counter\nholistix_poll_wakeups_total 10\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"5\"} 2\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"+Inf\"} 2\n\
holistix_stage_duration_us_sum{endpoint=\"predict\",stage=\"write\"} 8\n\
holistix_stage_duration_us_count{endpoint=\"predict\",stage=\"write\"} 2\n";

    const AFTER: &str = "holistix_poll_wakeups_total 25\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"5\"} 3\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"40\"} 5\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"95\"} 6\n\
holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\",le=\"+Inf\"} 6\n\
holistix_stage_duration_us_sum{endpoint=\"predict\",stage=\"write\"} 190\n\
holistix_stage_duration_us_count{endpoint=\"predict\",stage=\"write\"} 6\n";

    #[test]
    fn scrape_differences_isolate_a_phase() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(after.delta(&before, "holistix_poll_wakeups_total"), 15.0);
        let series = "holistix_stage_duration_us{endpoint=\"predict\",stage=\"write\"}";
        let delta = after.hist_delta(&before, series);
        assert_eq!(delta.count, 4.0);
        assert_eq!(delta.sum, 182.0);
        // Phase values: one ≤5, two in (5,40], one in (40,95].
        assert_eq!(delta.percentile(0.25), 5.0);
        assert_eq!(delta.percentile(0.5), 40.0);
        assert_eq!(delta.percentile(0.99), 95.0);
        assert_eq!(
            after
                .family_hist_deltas(&before, "holistix_stage_duration_us")
                .len(),
            1
        );
    }
}
