//! Minimal CSV persistence for encoded datasets.
//!
//! Good enough for inspecting generated data and for shipping experiment
//! inputs between runs; not a general CSV parser (no embedded quotes in
//! headers, UTF-8 only). Values are written in *encoded* form with a header
//! carrying feature names; the schema itself travels separately.

use crate::dataset::Dataset;
use crate::instance::{Cat, Instance, Label};
use crate::schema::Schema;

/// Serializes a dataset to CSV with a header row; the last column is the
/// label code.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    for f in ds.schema().features() {
        out.push_str(&escape(&f.name));
        out.push(',');
    }
    out.push_str("__label\n");
    for (x, y) in ds.iter() {
        for v in x.values() {
            out.push_str(&v.to_string());
            out.push(',');
        }
        out.push_str(&y.0.to_string());
        out.push('\n');
    }
    out
}

/// Errors from [`from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// A row had the wrong number of fields.
    RowWidth {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// A field failed to parse as an encoded value.
    BadValue {
        /// 1-based line number of the offending row.
        line: usize,
        /// Raw field contents.
        field: String,
    },
    /// Header does not match the supplied schema.
    SchemaMismatch,
    /// A value code lies outside its feature's domain.
    ValueOutOfRange {
        /// 1-based line number of the offending row.
        line: usize,
        /// The feature's name.
        feature: String,
        /// The rejected code.
        value: Cat,
        /// The feature's cardinality (valid codes are `0..cardinality`).
        cardinality: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "missing CSV header"),
            CsvError::RowWidth { line } => write!(f, "wrong field count at line {line}"),
            CsvError::BadValue { line, field } => {
                write!(f, "unparsable value {field:?} at line {line}")
            }
            CsvError::SchemaMismatch => write!(f, "CSV header does not match schema"),
            CsvError::ValueOutOfRange {
                line,
                feature,
                value,
                cardinality,
            } => write!(
                f,
                "value code {value} of feature {feature:?} at line {line} is outside \
                 its cardinality {cardinality}"
            ),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses a dataset previously written by [`to_csv`], validating the header
/// and every value code against `schema`.
pub fn from_csv(text: &str, name: &str, schema: Schema) -> Result<Dataset, CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::MissingHeader)?;
    let cols: Vec<&str> = header.split(',').collect();
    if cols.len() != schema.n_features() + 1 || cols[cols.len() - 1] != "__label" {
        return Err(CsvError::SchemaMismatch);
    }
    for (i, col) in cols[..cols.len() - 1].iter().enumerate() {
        if unescape(col) != schema.feature(i).name {
            return Err(CsvError::SchemaMismatch);
        }
    }
    let mut instances = Vec::new();
    let mut labels = Vec::new();
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != cols.len() {
            return Err(CsvError::RowWidth { line: idx + 1 });
        }
        let mut vals: Vec<Cat> = Vec::with_capacity(fields.len() - 1);
        for (i, f) in fields[..fields.len() - 1].iter().enumerate() {
            let v: Cat = f.parse().map_err(|_| CsvError::BadValue {
                line: idx + 1,
                field: (*f).to_string(),
            })?;
            let def = schema.feature(i);
            if v as usize >= def.cardinality() {
                return Err(CsvError::ValueOutOfRange {
                    line: idx + 1,
                    feature: def.name.clone(),
                    value: v,
                    cardinality: def.cardinality(),
                });
            }
            vals.push(v);
        }
        let y: u32 = fields[fields.len() - 1]
            .parse()
            .map_err(|_| CsvError::BadValue {
                line: idx + 1,
                field: fields[fields.len() - 1].to_string(),
            })?;
        instances.push(Instance::new(vals));
        labels.push(Label(y));
    }
    Ok(Dataset::new(name.to_string(), schema, instances, labels))
}

/// Parses a dataset from CSV *without* a known schema: every column is
/// treated as categorical with cardinality `max code + 1` and synthetic
/// value names (`v0`, `v1`, …). This is what the `cce` CLI uses to load
/// user-provided encoded data.
pub fn infer_from_csv(text: &str, name: &str) -> Result<Dataset, CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::MissingHeader)?;
    let cols: Vec<&str> = header.split(',').collect();
    if cols.len() < 2 || cols[cols.len() - 1] != "__label" {
        return Err(CsvError::SchemaMismatch);
    }
    let n = cols.len() - 1;
    let mut instances: Vec<Vec<Cat>> = Vec::new();
    let mut labels = Vec::new();
    let mut max_code = vec![0u32; n];
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != cols.len() {
            return Err(CsvError::RowWidth { line: idx + 1 });
        }
        let mut vals: Vec<Cat> = Vec::with_capacity(n);
        for f in &fields[..n] {
            let v: Cat = f.parse().map_err(|_| CsvError::BadValue {
                line: idx + 1,
                field: (*f).to_string(),
            })?;
            vals.push(v);
        }
        for (m, &v) in max_code.iter_mut().zip(&vals) {
            *m = (*m).max(v);
        }
        let y: u32 = fields[n].parse().map_err(|_| CsvError::BadValue {
            line: idx + 1,
            field: fields[n].to_string(),
        })?;
        instances.push(vals);
        labels.push(Label(y));
    }
    let feats = cols[..n]
        .iter()
        .zip(&max_code)
        .map(|(name, &m)| {
            let values: Vec<String> = (0..=m).map(|v| format!("v{v}")).collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            crate::schema::FeatureDef::categorical(&unescape(name), &refs)
        })
        .collect();
    Ok(Dataset::new(
        name.to_string(),
        Schema::new(feats),
        instances.into_iter().map(Instance::new).collect(),
        labels,
    ))
}

fn escape(s: &str) -> String {
    s.replace(',', ";")
}

fn unescape(s: &str) -> String {
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FeatureDef;

    fn toy() -> Dataset {
        let schema = Schema::new(vec![
            FeatureDef::categorical("a", &["x", "y"]),
            FeatureDef::categorical("b", &["p", "q"]),
        ]);
        let instances = vec![Instance::new(vec![0, 1]), Instance::new(vec![1, 0])];
        let labels = vec![Label(0), Label(1)];
        Dataset::new("toy".into(), schema, instances, labels)
    }

    #[test]
    fn round_trip() {
        let ds = toy();
        let text = to_csv(&ds);
        let back = from_csv(&text, "toy", ds.schema().clone()).unwrap();
        assert_eq!(back.instances(), ds.instances());
        assert_eq!(back.labels(), ds.labels());
    }

    #[test]
    fn header_validation() {
        let ds = toy();
        let text = to_csv(&ds);
        let wrong = Schema::new(vec![
            FeatureDef::categorical("zzz", &["x", "y"]),
            FeatureDef::categorical("b", &["p", "q"]),
        ]);
        assert_eq!(
            from_csv(&text, "toy", wrong).unwrap_err(),
            CsvError::SchemaMismatch
        );
    }

    #[test]
    fn bad_value_reported_with_line() {
        let ds = toy();
        let mut text = to_csv(&ds);
        text.push_str("nope,1,0\n");
        match from_csv(&text, "toy", ds.schema().clone()) {
            Err(CsvError::BadValue { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn out_of_domain_code_reported_with_line() {
        let ds = toy();
        let mut text = to_csv(&ds);
        // Feature `b` has cardinality 2, so code 2 is outside it.
        text.push_str("0,2,0\n");
        assert_eq!(
            from_csv(&text, "toy", ds.schema().clone()).unwrap_err(),
            CsvError::ValueOutOfRange {
                line: 4,
                feature: "b".to_string(),
                value: 2,
                cardinality: 2,
            }
        );
    }

    #[test]
    fn infer_round_trips_codes() {
        let ds = toy();
        let text = to_csv(&ds);
        let inferred = infer_from_csv(&text, "toy").unwrap();
        assert_eq!(inferred.instances(), ds.instances());
        assert_eq!(inferred.labels(), ds.labels());
        assert_eq!(inferred.schema().feature(0).name, "a");
        // Cardinalities inferred from observed codes.
        assert_eq!(inferred.schema().feature(0).cardinality(), 2);
    }

    #[test]
    fn infer_rejects_missing_label_column() {
        assert_eq!(
            infer_from_csv("a,b\n0,1\n", "x").unwrap_err(),
            CsvError::SchemaMismatch
        );
    }

    #[test]
    fn empty_body_is_ok() {
        let ds = toy();
        let header_only: String = to_csv(&ds).lines().next().unwrap().to_string() + "\n";
        let back = from_csv(&header_only, "toy", ds.schema().clone()).unwrap();
        assert!(back.is_empty());
    }
}
