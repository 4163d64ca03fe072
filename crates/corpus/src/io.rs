//! Corpus serialisation: JSONL and CSV.
//!
//! The paper releases Holistix as flat files on GitHub. These readers/writers let a
//! real release be dropped into this reproduction in place of the synthetic corpus:
//! the JSONL format carries the full data model (text, category, label, span); the CSV
//! format carries the `text,label` pairs most classification scripts expect.
//!
//! All JSON scanning and escaping lives in [`crate::json`] (shared with the
//! serving layer); this module only knows the JSONL record schema.

use crate::json::{json_escape, JsonParser};
use crate::post::{AnnotatedPost, Post, Span, WellnessDimension};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// One JSONL record.
#[derive(Debug, Clone)]
struct JsonlRecord {
    id: usize,
    text: String,
    category: String,
    label: String,
    span_start: usize,
    span_end: usize,
}

impl JsonlRecord {
    /// Render as a single-line JSON object via [`crate::json`] (the build is
    /// offline, so there is no serde); the field set is small and fixed, so
    /// this stays byte-compatible with what `serde_json` produced.
    fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"text\":{},\"category\":{},\"label\":{},\"span_start\":{},\"span_end\":{}}}",
            self.id,
            json_escape(&self.text),
            json_escape(&self.category),
            json_escape(&self.label),
            self.span_start,
            self.span_end
        )
    }

    /// Parse one JSON object. Field order is free, unknown scalar fields are
    /// ignored (matching serde's default), missing fields are errors.
    fn from_json(line: &str) -> Result<Self, String> {
        let mut p = JsonParser::new(line);
        let mut id = None;
        let mut text = None;
        let mut category = None;
        let mut label = None;
        let mut span_start = None;
        let mut span_end = None;
        p.expect('{')?;
        p.skip_ws();
        if !p.eat('}') {
            loop {
                let key = p.parse_string()?;
                p.expect(':')?;
                match key.as_str() {
                    "id" => id = Some(p.parse_usize()?),
                    "span_start" => span_start = Some(p.parse_usize()?),
                    "span_end" => span_end = Some(p.parse_usize()?),
                    "text" => text = Some(p.parse_string()?),
                    "category" => category = Some(p.parse_string()?),
                    "label" => label = Some(p.parse_string()?),
                    // Unknown fields of any shape (scalars, arrays, objects)
                    // are ignored, matching serde's default.
                    _ => p.skip_value()?,
                }
                p.skip_ws();
                if p.eat(',') {
                    continue;
                }
                p.expect('}')?;
                break;
            }
        }
        p.expect_end()?;
        Ok(Self {
            id: id.ok_or("missing field `id`")?,
            text: text.ok_or("missing field `text`")?,
            category: category.ok_or("missing field `category`")?,
            label: label.ok_or("missing field `label`")?,
            span_start: span_start.ok_or("missing field `span_start`")?,
            span_end: span_end.ok_or("missing field `span_end`")?,
        })
    }
}

impl From<&AnnotatedPost> for JsonlRecord {
    fn from(p: &AnnotatedPost) -> Self {
        Self {
            id: p.post.id,
            text: p.post.text.clone(),
            category: p.post.category.clone(),
            label: p.label.code().to_string(),
            span_start: p.span.start,
            span_end: p.span.end,
        }
    }
}

impl TryFrom<JsonlRecord> for AnnotatedPost {
    type Error = io::Error;

    fn try_from(r: JsonlRecord) -> Result<Self, Self::Error> {
        let label: WellnessDimension = r
            .label
            .parse()
            .map_err(|e: String| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if r.span_end < r.span_start || r.span_end > r.text.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record {}: span {}..{} out of range",
                    r.id, r.span_start, r.span_end
                ),
            ));
        }
        Ok(AnnotatedPost {
            post: Post {
                id: r.id,
                text: r.text,
                category: r.category,
            },
            label,
            span: Span::new(r.span_start, r.span_end),
        })
    }
}

/// Serialise posts to a JSONL string (one JSON object per line).
pub fn to_jsonl(posts: &[AnnotatedPost]) -> String {
    let mut out = String::new();
    for p in posts {
        let record = JsonlRecord::from(p);
        out.push_str(&record.to_json());
        out.push('\n');
    }
    out
}

/// Parse posts from a JSONL string. Blank lines are skipped; malformed lines are errors.
pub fn from_jsonl(data: &str) -> io::Result<Vec<AnnotatedPost>> {
    let mut posts = Vec::new();
    for (lineno, line) in data.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = JsonlRecord::from_json(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        posts.push(AnnotatedPost::try_from(record)?);
    }
    Ok(posts)
}

/// Write posts to a JSONL file.
pub fn write_jsonl(path: &Path, posts: &[AnnotatedPost]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(to_jsonl(posts).as_bytes())
}

/// Read posts from a JSONL file.
pub fn read_jsonl(path: &Path) -> io::Result<Vec<AnnotatedPost>> {
    from_jsonl(&fs::read_to_string(path)?)
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialise posts to a `text,label,span_text` CSV with a header row.
pub fn to_csv(posts: &[AnnotatedPost]) -> String {
    let mut out = String::from("text,label,span_text\n");
    for p in posts {
        out.push_str(&format!(
            "{},{},{}\n",
            csv_escape(&p.post.text),
            p.label.code(),
            csv_escape(p.span_text())
        ));
    }
    out
}

/// Parse a minimal `text,label[,...]` CSV (quoted fields supported) into
/// `(text, label)` pairs. The header row is required and skipped.
pub fn from_csv(data: &str) -> io::Result<Vec<(String, WellnessDimension)>> {
    let mut rows = Vec::new();
    for (lineno, line) in data.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() {
            continue;
        }
        let fields = parse_csv_line(line);
        if fields.len() < 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected at least 2 fields", lineno + 1),
            ));
        }
        let label: WellnessDimension = fields[1].parse().map_err(|e: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        rows.push((fields[0].clone(), label));
    }
    Ok(rows)
}

fn parse_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                current.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    fields.push(current);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::HolistixCorpus;

    #[test]
    fn jsonl_round_trip() {
        let corpus = HolistixCorpus::generate_small(40, 4);
        let jsonl = to_jsonl(&corpus.posts);
        let parsed = from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, corpus.posts);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_rejects_garbage() {
        let corpus = HolistixCorpus::generate_small(10, 4);
        let mut jsonl = to_jsonl(&corpus.posts);
        jsonl.push_str("\n\n");
        assert_eq!(from_jsonl(&jsonl).unwrap().len(), corpus.len());
        assert!(from_jsonl("not json\n").is_err());
    }

    #[test]
    fn jsonl_accepts_surrogate_pair_escapes() {
        // ASCII-only serializers (e.g. Python's json.dumps default) emit non-BMP
        // characters as UTF-16 surrogate pairs.
        let line = r#"{"id":0,"text":"ok \ud83d\ude42","category":"Anxiety","label":"PA","span_start":0,"span_end":2}"#;
        let posts = from_jsonl(line).unwrap();
        assert_eq!(posts[0].post.text, "ok \u{1F642}");
        // Lone or malformed surrogates are rejected, not mangled.
        let lone = r#"{"id":0,"text":"\ud83d","category":"Anxiety","label":"PA","span_start":0,"span_end":0}"#;
        assert!(from_jsonl(lone).is_err());
        let bad_low = r#"{"id":0,"text":"\ud83dA","category":"Anxiety","label":"PA","span_start":0,"span_end":0}"#;
        assert!(from_jsonl(bad_low).is_err());
    }

    #[test]
    fn jsonl_ignores_unknown_fields_of_any_shape() {
        // A real released corpus may carry extra fields; nested ones included.
        let line = r#"{"id":0,"text":"hi","category":"Anxiety","label":"PA","span_start":0,"span_end":1,"tags":["a",{"x":1}],"meta":{"source":"forum","ids":[1,2]},"score":0.5,"ok":true}"#;
        let posts = from_jsonl(line).unwrap();
        assert_eq!(posts[0].post.text, "hi");
    }

    #[test]
    fn jsonl_rejects_bad_span_and_label() {
        let bad_span = r#"{"id":0,"text":"hi","category":"Anxiety","label":"PA","span_start":0,"span_end":99}"#;
        assert!(from_jsonl(bad_span).is_err());
        let bad_label =
            r#"{"id":0,"text":"hi","category":"Anxiety","label":"ZZ","span_start":0,"span_end":1}"#;
        assert!(from_jsonl(bad_label).is_err());
    }

    #[test]
    fn jsonl_file_round_trip() {
        let corpus = HolistixCorpus::generate_small(20, 6);
        let dir = std::env::temp_dir().join("holistix_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        write_jsonl(&path, &corpus.posts).unwrap();
        let parsed = read_jsonl(&path).unwrap();
        assert_eq!(parsed, corpus.posts);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn csv_round_trip_texts_and_labels() {
        let corpus = HolistixCorpus::generate_small(30, 8);
        let csv = to_csv(&corpus.posts);
        let rows = from_csv(&csv).unwrap();
        assert_eq!(rows.len(), corpus.len());
        for (row, post) in rows.iter().zip(&corpus.posts) {
            assert_eq!(row.0, post.post.text);
            assert_eq!(row.1, post.label);
        }
    }

    #[test]
    fn csv_quoting_handles_commas_and_quotes() {
        let line = parse_csv_line(r#""I said ""hi"", twice",PA,span"#);
        assert_eq!(line[0], r#"I said "hi", twice"#);
        assert_eq!(line[1], "PA");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
    }

    #[test]
    fn csv_missing_fields_is_error() {
        assert!(from_csv("text,label\nonly-one-field\n").is_err());
        assert!(from_csv("text,label\nhello,NOPE\n").is_err());
    }
}
