//! Small helpers: order statistics and a JSON writer.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The tail of `values`: the highest percentile among p90, p95, p99 and
/// p99.9 that leaves at least ten samples above it.  Returns
/// `(percentile, value)`, or `None` with fewer than 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| values.len() as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
        .and_then(|p| quantile(values, p / 100.0).map(|v| (p, v)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `sparse.spmv_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `GB/s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for `metrics`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::new(), |j, m| {
        j.obj(
            &m.name,
            Json::new().num("value", m.value).str("unit", m.unit),
        )
    })
}

/// A minimal JSON object writer (keys in insertion order).
#[derive(Debug, Default, Clone)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a number (non-finite values are written as `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), number(value)));
        self
    }

    /// Adds an integer.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), string(value)));
        self
    }

    /// Adds a nested object.
    pub fn obj(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Adds a value that is already JSON text.
    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.fields.push((key.to_string(), json));
        self
    }

    /// The object as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", string(k));
        }
        out.push('}');
        out
    }
}

/// A JSON number; `null` for NaN or infinity.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
        assert!(tail(&v[..19]).is_none());
    }

    #[test]
    fn json_escapes_and_nulls() {
        let j = Json::new()
            .str("a\"b", "x\ny")
            .num("n", f64::NAN)
            .int("i", 3);
        assert_eq!(j.render(), r#"{"a\"b": "x\ny", "n": null, "i": 3}"#);
    }
}
